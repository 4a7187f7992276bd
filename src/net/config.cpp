#include "djstar/net/config.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "djstar/support/env.hpp"

namespace djstar::net {
namespace {

namespace env = support::env;

[[noreturn]] void bad_value(std::string_view text, const char* why) {
  throw std::invalid_argument(
      "invalid DJSTAR_NET value '" + std::string(text) + "': " + why +
      " (expected <port>[,max_conns[,send_ring_kb]] — e.g. \"7000,64,256\")");
}

// Every field is at most kMaxSendRingKb; parse_uint saturates one past it
// so longer digit strings fail the caller's range check.
std::uint64_t parse_field(std::string_view full, std::string_view field,
                          const char* name) {
  const auto v = env::parse_uint(env::trim(field), kMaxSendRingKb + 1ULL);
  if (!v) bad_value(full, name);
  return *v;
}

}  // namespace

NetConfig NetConfig::parse(std::string_view text) {
  const std::vector<std::string_view> fields = env::split(text);
  if (fields.size() > 3) bad_value(text, "too many fields");

  NetConfig cfg;
  const std::uint64_t port = parse_field(text, fields[0], "malformed port");
  if (port > 65535) bad_value(text, "port out of range (0..65535)");
  cfg.port = static_cast<std::uint16_t>(port);

  if (fields.size() >= 2) {
    const std::uint64_t mc =
        parse_field(text, fields[1], "malformed max_conns");
    if (mc == 0 || mc > kMaxConns) {
      bad_value(text, "max_conns out of range (1..4096)");
    }
    cfg.max_conns = static_cast<unsigned>(mc);
  }
  if (fields.size() == 3) {
    const std::uint64_t kb =
        parse_field(text, fields[2], "malformed send_ring_kb");
    if (kb < kMinSendRingKb || kb > kMaxSendRingKb) {
      bad_value(text, "send_ring_kb out of range (16..1048576)");
    }
    cfg.send_ring_kb = static_cast<unsigned>(kb);
  }
  return cfg;
}

}  // namespace djstar::net
