// djstar/net/config.hpp
// Hardened DJSTAR_NET configuration under the one support/env contract:
// an explicitly-set but malformed value throws std::invalid_argument
// naming the offending text — never a silent default.
//
//   DJSTAR_NET=<port>[,max_conns[,send_ring_kb]]
//
//   port          0..65535 (0 = bind an ephemeral port)
//   max_conns     1..kMaxConns — concurrent client connections; beyond
//                 the limit new sockets get ERROR(kServerFull) + close
//   send_ring_kb  kMinSendRingKb..kMaxSendRingKb — per-connection send
//                 ring budget; the backpressure watermark (DESIGN.md
//                 §13: drop-oldest for besteffort audio, disconnect for
//                 a stalled realtime subscriber)
//
// Empty values, garbage, negative numbers, trailing text, and
// out-of-range fields all throw.
#pragma once

#include <cstdint>
#include <string_view>

namespace djstar::net {

inline constexpr unsigned kMaxConns = 4096;
inline constexpr unsigned kMinSendRingKb = 16;
inline constexpr unsigned kMaxSendRingKb = 1u << 20;  // 1 GiB ring is a bug

struct NetConfig {
  std::uint16_t port = 0;      ///< 0 = ephemeral
  unsigned max_conns = 64;
  unsigned send_ring_kb = 256;

  /// Parse "<port>[,max_conns[,send_ring_kb]]" (fields trimmed).
  /// Throws std::invalid_argument (message quotes the input) on any
  /// malformed or out-of-range field. net::Server applies DJSTAR_NET
  /// through here.
  static NetConfig parse(std::string_view text);
};

}  // namespace djstar::net
