// djstar/net/server.hpp
// The network front-end: bridges TCP connections to serve::EngineHost
// (DESIGN.md §13).
//
// Two threads, one rule:
//
//   reactor thread   accept/read/write sockets, decode frames, handle
//                    control ops (OPEN_SESSION / CLOSE_SESSION / STATS
//                    map onto the host's thread-safe control plane),
//                    serve GET /metrics (minimal HTTP/1.0) from the
//                    host's metrics registry.
//   engine thread    the host's data plane: run_fleet_cycle() in a
//                    loop. After each tick it publishes admission
//                    verdicts (OPEN_SESSION replies), fans each
//                    session's cycle audio out to subscribers through
//                    per-connection bounded send rings, and refreshes
//                    the WireStats cache.
//
// The rule: the engine thread NEVER touches a socket. It pushes encoded
// frames into a connection's bounded ring (mutex-guarded, O(1), no
// syscalls beyond an eventfd kick) and the reactor drains rings to the
// sockets. A slow consumer therefore costs the engine nothing:
//
//   - besteffort/standard audio overflowing the ring is shed
//     drop-oldest (the subscriber loses stale packets, the stream
//     stays live);
//   - a realtime subscriber whose ring overflows is beyond salvage —
//     stale realtime audio is worthless — so the connection is doomed:
//     pending audio is cleared, ERROR(kBackpressure) is queued, and
//     the reactor disconnects it after the flush. Co-hosted realtime
//     sessions never notice (PR 3's shed-don't-block doctrine).
//
// Telemetry: djstar_net_* counters/gauges land in the host's registry
// (so one /metrics scrape covers fleet + edge), and connection
// lifecycle / shedding decisions go to the host's journal.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "djstar/net/codec.hpp"
#include "djstar/net/config.hpp"
#include "djstar/net/frame.hpp"
#include "djstar/net/reactor.hpp"
#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"

namespace djstar::net {

struct ServerConfig {
  /// Wire knobs; DJSTAR_NET=<port>[,max_conns[,send_ring_kb]]
  /// overrides this when set (applied in the constructor).
  NetConfig net{};
  serve::HostConfig host{};
  /// Refresh the cached WireStats every this many ticks.
  unsigned stats_refresh_ticks = 16;
  /// Stop the engine thread after this many *served* ticks (ticks with
  /// at least one active session; idle ticks before the first client
  /// arrives don't count). 0 = run until stop(). Benches and the
  /// loopback tests use this for a bounded, comparable run.
  std::uint64_t max_ticks = 0;
};

class Server {
 public:
  /// Binds and listens (throws std::runtime_error on socket failure,
  /// std::invalid_argument on a malformed DJSTAR_NET). No threads run
  /// until start().
  explicit Server(ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start the reactor and engine threads. Idempotent.
  void start();
  /// Disconnect everything and join both threads. Idempotent.
  void stop();

  /// The actual bound port (differs from cfg.net.port when that was 0).
  std::uint16_t port() const noexcept { return port_; }
  /// The configuration in force (DJSTAR_NET applied).
  const ServerConfig& config() const noexcept { return cfg_; }

  /// The hosted engine. Control-plane calls are safe while running;
  /// data-plane introspection only after stop().
  serve::EngineHost& host() noexcept { return host_; }

  /// Thread-safe snapshot of the cached fleet counters (refreshed by
  /// the engine thread every stats_refresh_ticks).
  WireStats wire_stats() const;

  /// Served ticks so far (see ServerConfig::max_ticks).
  std::uint64_t served_ticks() const noexcept {
    return served_ticks_.load(std::memory_order_relaxed);
  }
  /// Block until the engine thread finished its max_ticks budget (or
  /// was stopped). Returns the wall time the served ticks took, in us.
  double wait_engine_done();

 private:
  struct SendItem {
    std::vector<std::uint8_t> bytes;
    bool droppable = false;  ///< audio frames may be shed drop-oldest
    serve::QoS qos = serve::QoS::kBestEffort;
    /// Enqueue time, closing the latency decomposition's last stage
    /// (djstar_stage_net_flush_us_*: ring enqueue to final socket
    /// write). Default (unstamped) items — HTTP responses — are not
    /// recorded; only session traffic has a QoS to attribute to.
    support::Clock::time_point enqueued{};
  };

  /// One client connection. The mutex guards the ring (engine pushes,
  /// reactor pops); everything else is reactor-thread-only.
  struct Connection {
    int fd = -1;
    Decoder decoder;
    serve::QoS max_qos = serve::QoS::kBestEffort;  ///< strictest subscribed
    // Send ring (shared engine/reactor state, under `mutex`).
    std::mutex mutex;
    std::deque<SendItem> ring;
    std::size_t ring_bytes = 0;
    std::size_t front_off = 0;  ///< partial-write offset into ring.front()
    bool doomed = false;        ///< close once the ring drains
    // Reactor-thread-only.
    bool want_write = false;
    bool sniffed = false;
    bool http = false;
    std::vector<std::uint8_t> http_buf;
    std::vector<serve::SessionId> owned;
  };

  /// A session opened over the wire: everything the fan-out needs that
  /// the host doesn't expose across threads.
  struct WireSession {
    serve::SessionId id = serve::kInvalidSession;
    serve::QoS qos = serve::QoS::kStandard;
    bool subscribe = false;
    bool acked = false;
    std::uint64_t cycles_seen = 0;
    std::shared_ptr<void> arena;  ///< keeps `output` alive past close
    const audio::AudioBuffer* output = nullptr;
    std::weak_ptr<Connection> owner;
  };

  // Reactor-thread handlers.
  void on_accept(std::uint32_t events);
  void on_conn_event(const std::shared_ptr<Connection>& c,
                     std::uint32_t events);
  void read_conn(const std::shared_ptr<Connection>& c);
  void handle_frame(const std::shared_ptr<Connection>& c, Frame f);
  void handle_open(const std::shared_ptr<Connection>& c, const Frame& f);
  void handle_http(const std::shared_ptr<Connection>& c);
  void flush_conn(const std::shared_ptr<Connection>& c);
  void flush_pending();
  void close_conn(const std::shared_ptr<Connection>& c, bool server_initiated);

  // Either thread (ring-level; takes c.mutex).
  void push_item(Connection& c, std::vector<std::uint8_t> bytes,
                 bool droppable, serve::QoS qos);
  void doom_locked(Connection& c, ErrorCode code, const char* message);

  // Engine thread.
  void engine_loop();
  void after_tick();
  void publish_admission_verdicts();
  void fan_out_audio();
  void refresh_wire_stats();

  ServerConfig cfg_;
  std::size_t ring_cap_bytes_ = 0;
  serve::EngineHost host_;
  Reactor reactor_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  // Connection table: reactor mutates, engine iterates for fan-out.
  mutable std::mutex conns_mutex_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  // Wire-session table: reactor mutates on open/close, engine reads and
  // updates fan-out bookkeeping.
  mutable std::mutex sessions_mutex_;
  std::vector<WireSession> sessions_;
  std::size_t admission_seen_ = 0;  ///< engine thread only

  std::thread engine_;
  std::atomic<bool> engine_stop_{false};
  std::atomic<std::uint64_t> served_ticks_{0};
  std::atomic<bool> started_{false};
  /// host_.ticks() mirror for journal stamps from the reactor thread
  /// (ticks() itself is data-plane-only).
  std::atomic<std::uint64_t> last_tick_{0};
  /// Coalesces the engine's per-tick flush kicks: set when a kick has
  /// been posted and not yet run, so a fast engine costs the reactor
  /// one wakeup per drain, not one per tick.
  std::atomic<bool> flush_kick_pending_{false};
  std::vector<float> fan_buf_;  ///< engine thread: audio staging

  mutable std::mutex stats_mutex_;
  WireStats wire_stats_{};

  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool engine_done_ = false;
  double served_elapsed_us_ = 0;  ///< wall time over the served ticks

  // djstar_net_* instrumentation (registered on the host's registry).
  support::Counter m_connections_;
  support::Counter m_disconnects_;
  support::Counter m_frames_rx_;
  support::Counter m_frames_tx_;
  support::Counter m_bytes_rx_;
  support::Counter m_bytes_tx_;
  support::Counter m_audio_frames_;
  support::Counter m_audio_drops_;
  support::Counter m_backpressure_trips_;
  support::Counter m_protocol_errors_;
  support::Counter m_http_requests_;
  support::Counter m_debug_requests_;
  support::Gauge g_connections_;
  /// Net-flush stage of the latency decomposition (DESIGN.md §14), per
  /// QoS class: ring enqueue to the write() completing the frame.
  std::array<support::HistogramMetric, serve::kQoSCount> h_net_flush_;
};

}  // namespace djstar::net
