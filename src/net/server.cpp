#include "djstar/net/server.hpp"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <netinet/in.h>
#include <stdexcept>
#include <string>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "djstar/net/io.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/time.hpp"

namespace djstar::net {
namespace {

constexpr std::size_t kReadChunk = 4096;
constexpr std::size_t kMaxHttpRequest = 4096;

bool http_request_complete(const std::vector<std::uint8_t>& buf) {
  const std::string_view v(reinterpret_cast<const char*>(buf.data()),
                           buf.size());
  return v.find("\r\n\r\n") != std::string_view::npos ||
         v.find("\n\n") != std::string_view::npos;
}

// Extract a query parameter's value from an HTTP request line
// ("GET /path?a=1&b=2 HTTP/1.0"). Empty view when absent. No
// percent-decoding — series names are metric-style identifiers.
std::string_view query_param(std::string_view line, std::string_view key) {
  const std::size_t q = line.find('?');
  if (q == std::string_view::npos) return {};
  std::size_t end = line.find(' ', q);
  if (end == std::string_view::npos) end = line.size();
  std::string_view query = line.substr(q + 1, end - q - 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {};
}

// GET /debug index: a static route table so the debug surface is
// discoverable without reading the source.
constexpr const char* kDebugIndexJson =
    "{\"endpoints\":["
    "{\"path\":\"/metrics\",\"description\":"
    "\"Prometheus text exposition of the fleet metrics\"},"
    "{\"path\":\"/debug\",\"description\":\"this endpoint index\"},"
    "{\"path\":\"/debug/attribution\",\"description\":"
    "\"per-session critical-path decomposition and blame report\"},"
    "{\"path\":\"/debug/profile\",\"description\":"
    "\"profiler mode, hw counters, per-session windowed latency\"},"
    "{\"path\":\"/debug/slo\",\"description\":"
    "\"per-scope SLO alert state, error budget, and burn rates\"},"
    "{\"path\":\"/debug/timeseries?series=<name>&window=<n>\","
    "\"description\":"
    "\"sealed tsdb windows for one series (no params: series index)\"}"
    "]}";

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), host_(cfg_.host) {
  if (const auto env = support::env::get("DJSTAR_NET")) {
    cfg_.net = NetConfig::parse(*env);
  }
  ring_cap_bytes_ = static_cast<std::size_t>(cfg_.net.send_ring_kb) * 1024;

  // djstar_net_* families live in the host's registry so one /metrics
  // scrape covers the fleet and its network edge.
  support::MetricsRegistry& reg = host_.metrics();
  m_connections_ = reg.counter("djstar_net_connections_total",
                               "TCP connections accepted");
  m_disconnects_ = reg.counter("djstar_net_disconnects_total",
                               "Connections closed (either side)");
  m_frames_rx_ =
      reg.counter("djstar_net_frames_rx_total", "Protocol frames received");
  m_frames_tx_ =
      reg.counter("djstar_net_frames_tx_total", "Protocol frames sent");
  m_bytes_rx_ = reg.counter("djstar_net_bytes_rx_total",
                            "Bytes received from clients");
  m_bytes_tx_ = reg.counter("djstar_net_bytes_tx_total",
                            "Bytes written to clients");
  m_audio_frames_ =
      reg.counter("djstar_net_audio_frames_total",
                  "Cycle-audio frames fanned out to subscribers");
  m_audio_drops_ =
      reg.counter("djstar_net_audio_drops_total",
                  "Audio frames shed drop-oldest from slow-consumer rings");
  m_backpressure_trips_ = reg.counter(
      "djstar_net_backpressure_trips_total",
      "Realtime subscribers disconnected for falling behind");
  m_protocol_errors_ = reg.counter("djstar_net_protocol_errors_total",
                                   "Connections dropped on malformed frames");
  m_http_requests_ =
      reg.counter("djstar_net_http_requests_total", "HTTP /metrics scrapes");
  m_debug_requests_ = reg.counter("djstar_net_debug_requests_total",
                                  "HTTP /debug endpoint requests");
  g_connections_ =
      reg.gauge("djstar_net_connections", "Open client connections");
  static constexpr double kFlushBounds[] = {10,   25,   50,   100,  250,
                                            500,  1000, 2500, 5000, 25000};
  for (unsigned q = 0; q < serve::kQoSCount; ++q) {
    h_net_flush_[q] = reg.histogram(
        std::string("djstar_stage_net_flush_us_") +
            to_string(static_cast<serve::QoS>(q)),
        "Ring enqueue to final socket write (us)", kFlushBounds);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(cfg_.net.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    throw std::runtime_error("bind(port " + std::to_string(cfg_.net.port) +
                             ") failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  reactor_.add(listen_fd_, EPOLLIN, [this](std::uint32_t ev) { on_accept(ev); });
}

Server::~Server() {
  stop();
  ::close(listen_fd_);
}

void Server::start() {
  if (started_.exchange(true)) return;
  engine_stop_.store(false);
  {
    std::lock_guard<std::mutex> lk(done_mutex_);
    engine_done_ = false;
  }
  reactor_.start();
  engine_ = std::thread([this] { engine_loop(); });
}

void Server::stop() {
  if (!started_.load()) return;
  engine_stop_.store(true);
  if (engine_.joinable()) engine_.join();
  // Disconnect every client ON the reactor thread (socket ownership
  // rule), and only then stop the loop.
  std::promise<void> drained;
  auto drained_f = drained.get_future();
  reactor_.post([this, &drained] {
    std::vector<std::shared_ptr<Connection>> all;
    {
      std::lock_guard<std::mutex> lk(conns_mutex_);
      all.reserve(conns_.size());
      for (auto& [fd, c] : conns_) all.push_back(c);
    }
    for (auto& c : all) close_conn(c, true);
    drained.set_value();
  });
  drained_f.wait();
  reactor_.stop();
  started_.store(false);
}

WireStats Server::wire_stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return wire_stats_;
}

double Server::wait_engine_done() {
  std::unique_lock<std::mutex> lk(done_mutex_);
  done_cv_.wait(lk, [this] { return engine_done_; });
  return served_elapsed_us_;
}

// ---- engine thread ---------------------------------------------------------

void Server::engine_loop() {
  using namespace std::chrono_literals;
  auto t0 = support::now();
  bool counting = false;
  while (!engine_stop_.load(std::memory_order_relaxed)) {
    host_.run_fleet_cycle();
    after_tick();
    if (host_.active_sessions() > 0) {
      if (!counting) {
        counting = true;
        t0 = support::now();
      }
      const std::uint64_t served =
          served_ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (cfg_.max_ticks != 0 && served >= cfg_.max_ticks) break;
    } else {
      // Idle host: nothing active, so don't spin a core on empty ticks.
      std::this_thread::sleep_for(200us);
    }
  }
  if (counting) served_elapsed_us_ = support::since_us(t0);
  refresh_wire_stats();
  {
    std::lock_guard<std::mutex> lk(done_mutex_);
    engine_done_ = true;
  }
  done_cv_.notify_all();
}

void Server::after_tick() {
  last_tick_.store(host_.ticks(), std::memory_order_relaxed);
  publish_admission_verdicts();
  fan_out_audio();
  if (cfg_.stats_refresh_ticks != 0 &&
      host_.ticks() % cfg_.stats_refresh_ticks == 0) {
    refresh_wire_stats();
  }
  // Kick the reactor to drain whatever the two steps above enqueued.
  // Cheap check first: no connections, no kick.
  bool any = false;
  {
    std::lock_guard<std::mutex> lk(conns_mutex_);
    for (auto& [fd, c] : conns_) {
      std::lock_guard<std::mutex> cl(c->mutex);
      if (!c->ring.empty() || c->doomed) {
        any = true;
        break;
      }
    }
  }
  if (any && !flush_kick_pending_.exchange(true, std::memory_order_acq_rel)) {
    // Coalesced: while one kick is in flight further ticks just pile
    // frames into the rings; the reactor drains everything in one pass.
    reactor_.post([this] {
      flush_kick_pending_.store(false, std::memory_order_release);
      flush_pending();
    });
  }
}

void Server::publish_admission_verdicts() {
  const std::vector<serve::AdmissionRecord>& log = host_.admission_log();
  for (; admission_seen_ < log.size(); ++admission_seen_) {
    const serve::AdmissionRecord& r = log[admission_seen_];
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    for (WireSession& ws : sessions_) {
      if (ws.id != r.id || ws.acked) continue;
      // First verdict only: a parked session that is admitted later
      // announces itself implicitly when its audio starts flowing.
      ws.acked = true;
      OpenSessionReply reply;
      reply.id = ws.id;
      reply.state = static_cast<std::uint8_t>(host_.session_state(ws.id));
      if (const auto c = ws.owner.lock()) {
        push_item(*c, encode_frame(make_frame(reply)), false, ws.qos);
      }
      break;
    }
  }
}

void Server::fan_out_audio() {
  std::lock_guard<std::mutex> lk(sessions_mutex_);
  for (WireSession& ws : sessions_) {
    if (!ws.subscribe || ws.output == nullptr) continue;
    const serve::Session* s = host_.session(ws.id);
    if (s == nullptr) continue;  // queued, parked, shed, or closing
    const std::uint64_t cycles = s->counters().cycles;
    if (cycles == ws.cycles_seen) continue;  // not due this tick
    ws.cycles_seen = cycles;
    const auto c = ws.owner.lock();
    if (c == nullptr) continue;

    const audio::AudioBuffer& out = *ws.output;
    fan_buf_.clear();
    for (std::size_t ch = 0; ch < out.channels(); ++ch) {
      const auto span = out.channel(ch);
      fan_buf_.insert(fan_buf_.end(), span.begin(), span.end());
    }
    CycleAudioHeader h;
    h.session = ws.id;
    h.tick = host_.ticks() - 1;  // the tick that just completed
    h.channels = static_cast<std::uint32_t>(out.channels());
    h.frames = static_cast<std::uint32_t>(out.frames());
    Frame f;
    f.type = FrameType::kCycleAudio;
    encode(h, fan_buf_, f.payload);
    m_audio_frames_.inc();
    push_item(*c, encode_frame(f), true, ws.qos);
  }
}

void Server::refresh_wire_stats() {
  const serve::FleetStats fs = host_.stats();
  WireStats w;
  w.ticks = fs.ticks;
  w.submitted = fs.submitted;
  w.admitted = fs.admitted;
  w.rejected = fs.rejected;
  w.shed = fs.shed;
  w.closed = fs.closed;
  w.cycles = fs.cycles;
  w.misses = fs.misses;
  w.active = host_.active_sessions();
  w.queued = host_.queued_sessions();
  std::lock_guard<std::mutex> lk(stats_mutex_);
  wire_stats_ = w;
}

// ---- ring (either thread) --------------------------------------------------

void Server::doom_locked(Connection& c, ErrorCode code, const char* message) {
  if (c.doomed) return;
  // Clear sheddable audio so the ERROR fits and goes out first; never
  // touch the front item mid-write.
  for (auto it = c.ring.begin(); it != c.ring.end();) {
    const bool front_mid_write = it == c.ring.begin() && c.front_off > 0;
    if (it->droppable && !front_mid_write) {
      c.ring_bytes -= it->bytes.size();
      it = c.ring.erase(it);
    } else {
      ++it;
    }
  }
  WireError e;
  e.code = static_cast<std::uint16_t>(code);
  e.message = message;
  std::vector<std::uint8_t> bytes = encode_frame(make_frame(e));
  c.ring_bytes += bytes.size();
  c.ring.push_back({std::move(bytes), false});
  c.doomed = true;
}

void Server::push_item(Connection& c, std::vector<std::uint8_t> bytes,
                       bool droppable, serve::QoS qos) {
  std::lock_guard<std::mutex> lk(c.mutex);
  if (c.doomed) return;
  const std::size_t need = bytes.size();
  if (c.ring_bytes + need > ring_cap_bytes_) {
    if (droppable && qos == serve::QoS::kRealtime) {
      // A realtime subscriber that cannot keep up gets no stale audio:
      // disconnect it with an explicit reason instead.
      m_backpressure_trips_.inc();
      host_.journal().push(support::EventKind::kNetBackpressure,
                           last_tick_.load(std::memory_order_relaxed), c.fd);
      doom_locked(c, ErrorCode::kBackpressure,
                  "realtime subscriber fell behind; disconnecting");
      return;
    }
    // Drop-oldest: shed stale audio until the new frame fits.
    std::size_t dropped = 0;
    for (auto it = c.ring.begin();
         it != c.ring.end() && c.ring_bytes + need > ring_cap_bytes_;) {
      const bool front_mid_write = it == c.ring.begin() && c.front_off > 0;
      if (it->droppable && !front_mid_write) {
        c.ring_bytes -= it->bytes.size();
        it = c.ring.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    if (dropped > 0) {
      m_audio_drops_.inc(dropped);
      host_.journal().push(support::EventKind::kNetAudioDrop,
                           last_tick_.load(std::memory_order_relaxed), c.fd,
                           static_cast<std::int64_t>(dropped));
    }
    if (c.ring_bytes + need > ring_cap_bytes_) {
      if (droppable) {
        // Even fully shed there is no room: the newest frame loses too.
        m_audio_drops_.inc();
        return;
      }
      // A control frame that cannot fit means the connection is wedged.
      doom_locked(c, ErrorCode::kBackpressure, "send ring overflow");
      return;
    }
  }
  c.ring_bytes += need;
  c.ring.push_back({std::move(bytes), droppable, qos, support::now()});
}

// ---- reactor thread --------------------------------------------------------

void Server::on_accept(std::uint32_t) {
  for (;;) {
    const int fd = accept_conn(listen_fd_);
    if (fd < 0) break;  // kWouldBlock drained, or transient error
    set_nonblocking(fd);
    set_nodelay(fd);
    // Cap the kernel send buffer at the ring budget. Left to autotune
    // it grows to megabytes on loopback, silently buffering minutes of
    // audio for a stalled subscriber underneath the ring — the
    // watermark doctrine only means something if the ring is the
    // deepest buffer on the path. (The kernel clamps to wmem_max.)
    const int sndbuf = static_cast<int>(
        std::min<std::size_t>(ring_cap_bytes_, 1u << 20));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));

    std::size_t count;
    {
      std::lock_guard<std::mutex> lk(conns_mutex_);
      count = conns_.size();
    }
    if (count >= cfg_.net.max_conns) {
      // Best-effort refusal; the socket buffer of a fresh connection
      // always has room for one small frame.
      WireError e;
      e.code = static_cast<std::uint16_t>(ErrorCode::kServerFull);
      e.message = "connection limit reached";
      const std::vector<std::uint8_t> bytes = encode_frame(make_frame(e));
      (void)write_some(fd, bytes.data(), bytes.size());
      ::close(fd);
      continue;
    }

    auto c = std::make_shared<Connection>();
    c->fd = fd;
    {
      std::lock_guard<std::mutex> lk(conns_mutex_);
      conns_[fd] = c;
    }
    m_connections_.inc();
    g_connections_.set(static_cast<double>(count + 1));
    host_.journal().push(support::EventKind::kNetConnect,
                         last_tick_.load(std::memory_order_relaxed), fd);
    reactor_.add(fd, EPOLLIN,
                 [this, c](std::uint32_t ev) { on_conn_event(c, ev); });
  }
}

void Server::on_conn_event(const std::shared_ptr<Connection>& c,
                           std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_conn(c, false);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    read_conn(c);
    // read_conn may have closed the connection.
    std::lock_guard<std::mutex> lk(conns_mutex_);
    const auto it = conns_.find(c->fd);
    if (it == conns_.end() || it->second != c) return;
  }
  if ((events & EPOLLOUT) != 0) flush_conn(c);
}

void Server::read_conn(const std::shared_ptr<Connection>& c) {
  std::uint8_t buf[kReadChunk];
  for (;;) {
    const ssize_t r = read_some(c->fd, buf, sizeof(buf));
    if (r == kWouldBlock) return;
    if (r <= 0) {  // EOF or error
      close_conn(c, false);
      return;
    }
    m_bytes_rx_.inc(static_cast<std::uint64_t>(r));
    if (!c->sniffed) {
      // The binary protocol starts with the version byte (0x01); an
      // HTTP request line starts with 'G'. One byte settles it.
      c->sniffed = true;
      c->http = buf[0] == 'G';
    }
    if (c->http) {
      c->http_buf.insert(c->http_buf.end(), buf, buf + r);
      if (c->http_buf.size() > kMaxHttpRequest) {
        close_conn(c, true);
        return;
      }
      if (http_request_complete(c->http_buf)) {
        handle_http(c);
        return;
      }
      continue;
    }
    c->decoder.feed(buf, static_cast<std::size_t>(r));
    while (auto f = c->decoder.next()) {
      m_frames_rx_.inc();
      handle_frame(c, std::move(*f));
    }
    if (c->decoder.failed()) {
      m_protocol_errors_.inc();
      host_.journal().push(support::EventKind::kNetProtocolError,
                           last_tick_.load(std::memory_order_relaxed), c->fd);
      {
        std::lock_guard<std::mutex> lk(c->mutex);
        doom_locked(*c, ErrorCode::kBadFrame, c->decoder.error().c_str());
      }
      flush_conn(c);
      return;
    }
  }
}

void Server::handle_frame(const std::shared_ptr<Connection>& c, Frame f) {
  {
    std::lock_guard<std::mutex> lk(c->mutex);
    if (c->doomed) return;
  }
  switch (f.type) {
    case FrameType::kOpenSession:
      handle_open(c, f);
      break;

    case FrameType::kCloseSession: {
      const auto msg = decode_close(f.payload);
      if (!msg) break;
      const auto owned = std::find(c->owned.begin(), c->owned.end(), msg->id);
      if (owned == c->owned.end()) {
        WireError e;
        e.code = static_cast<std::uint16_t>(ErrorCode::kUnknownSession);
        e.message = "close for a session this connection does not own";
        push_item(*c, encode_frame(make_frame(e)), false,
                  serve::QoS::kStandard);
        break;
      }
      host_.close(msg->id);
      c->owned.erase(owned);
      {
        std::lock_guard<std::mutex> lk(sessions_mutex_);
        std::erase_if(sessions_,
                      [&](const WireSession& ws) { return ws.id == msg->id; });
      }
      push_item(*c, encode_frame(make_frame(FrameType::kCloseSession, *msg)),
                false, serve::QoS::kStandard);
      break;
    }

    case FrameType::kStats:
      push_item(*c, encode_frame(make_frame(wire_stats())), false,
                serve::QoS::kStandard);
      break;

    case FrameType::kCycleAudio: {
      // Server-to-client only; a client sending audio is broken.
      m_protocol_errors_.inc();
      std::lock_guard<std::mutex> lk(c->mutex);
      doom_locked(*c, ErrorCode::kBadFrame,
                  "CYCLE_AUDIO is server-to-client only");
      break;
    }

    case FrameType::kError:
      break;  // informational from the client; nothing to do
  }
  flush_conn(c);
}

void Server::handle_open(const std::shared_ptr<Connection>& c,
                         const Frame& f) {
  const auto reject = [&](const char* why) {
    WireError e;
    e.code = static_cast<std::uint16_t>(ErrorCode::kRejected);
    e.message = why;
    push_item(*c, encode_frame(make_frame(e)), false, serve::QoS::kStandard);
  };

  const auto req = decode_open_request(f.payload);
  if (!req) {
    reject("malformed OPEN_SESSION payload");
    return;
  }
  if (req->qos >= serve::kQoSCount) return reject("invalid qos");
  if (req->width == 0 || req->width > 64) return reject("width out of range");
  if (req->depth == 0 || req->depth > 64) return reject("depth out of range");
  const double deadline =
      req->deadline_us == 0 ? audio::kDeadlineUs : req->deadline_us;
  if (!(deadline >= 50.0 && deadline <= 1e7)) {
    return reject("deadline_us out of range");
  }
  if (!(req->node_cost_us >= 0.0 && req->node_cost_us <= 1e6)) {
    return reject("node_cost_us out of range");
  }
  if (!(req->jitter >= 0.0 && req->jitter <= 1.0)) {
    return reject("jitter out of range");
  }
  if (!(req->sheddable_fraction >= 0.0 && req->sheddable_fraction <= 1.0)) {
    return reject("sheddable_fraction out of range");
  }
  if (!(req->cost_estimate_us >= 0.0 && req->cost_estimate_us <= 1e9)) {
    return reject("cost_estimate_us out of range");
  }

  serve::SyntheticSpec sspec;
  sspec.name = req->name.empty() ? "wire" : req->name;
  sspec.qos = static_cast<serve::QoS>(req->qos);
  sspec.deadline_us = deadline;
  sspec.width = req->width;
  sspec.depth = req->depth;
  sspec.node_cost_us = req->node_cost_us;
  sspec.jitter = req->jitter;
  sspec.sheddable_fraction = req->sheddable_fraction;
  sspec.seed = req->seed;
  sspec.deterministic = req->deterministic;

  serve::SessionSpec spec = serve::make_synthetic_session(sspec);
  if (req->cost_estimate_us > 0) spec.cost_estimate_us = req->cost_estimate_us;

  WireSession ws;
  ws.qos = sspec.qos;
  ws.subscribe = req->subscribe;
  ws.arena = spec.arena;  // keeps the output buffer alive for fan-out
  ws.output = spec.output;
  ws.owner = c;
  {
    // submit() and the sessions_ insert must be one atomic step from the
    // engine's point of view: the admission verdict is scanned against
    // sessions_ exactly once (publish_admission_verdicts), and the
    // free-running engine can log it the instant the command lands.
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    ws.id = host_.submit(std::move(spec));
    c->owned.push_back(ws.id);
    sessions_.push_back(std::move(ws));
  }
  // The OPEN_SESSION reply follows once the admission verdict lands at
  // the next tick boundary (publish_admission_verdicts).
}

void Server::handle_http(const std::shared_ptr<Connection>& c) {
  const std::string_view req(reinterpret_cast<const char*>(c->http_buf.data()),
                             c->http_buf.size());
  const std::size_t eol = req.find_first_of("\r\n");
  const std::string_view line = req.substr(0, eol);
  std::string response;
  const auto json_response = [&](const std::string& body) {
    return "HTTP/1.0 200 OK\r\n"
           "Content-Type: application/json; charset=utf-8\r\n"
           "Content-Length: " + std::to_string(body.size()) + "\r\n"
           "Connection: close\r\n\r\n" + body;
  };
  if (line.rfind("GET /metrics", 0) == 0) {
    m_http_requests_.inc();
    const std::string body = host_.metrics().prometheus();
    response = "HTTP/1.0 200 OK\r\n"
               "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
               "Content-Length: " + std::to_string(body.size()) + "\r\n"
               "Connection: close\r\n\r\n" + body;
  } else if (line.rfind("GET /debug/attribution", 0) == 0) {
    // Both /debug bodies are per-tick caches the data plane refreshes;
    // the reactor copies them under the host's debug mutex and never
    // touches fleet state (the engine thread never touches sockets, the
    // reactor never touches the engine — both rules hold).
    m_debug_requests_.inc();
    response = json_response(host_.debug_attribution_json());
  } else if (line.rfind("GET /debug/profile", 0) == 0) {
    m_debug_requests_.inc();
    response = json_response(host_.debug_profile_json());
  } else if (line.rfind("GET /debug/slo", 0) == 0) {
    m_debug_requests_.inc();
    response = json_response(host_.debug_slo_json());
  } else if (line.rfind("GET /debug/timeseries", 0) == 0) {
    // The only reader-side render: the tsdb snapshots under its own
    // mutex, so this never blocks the data plane either.
    m_debug_requests_.inc();
    const std::string_view series = query_param(line, "series");
    const std::string_view win = query_param(line, "window");
    std::size_t windows = 0;
    if (!win.empty()) {
      windows = static_cast<std::size_t>(
          std::strtoul(std::string(win).c_str(), nullptr, 10));
    }
    response = json_response(host_.debug_timeseries_json(series, windows));
  } else if (line.rfind("GET /debug", 0) == 0 &&
             (line.size() == 10 || line[10] == ' ' || line[10] == '?' ||
              (line[10] == '/' &&
               (line.size() == 11 || line[11] == ' ')))) {
    // Bare /debug (or /debug/): the endpoint index. The boundary check
    // keeps unknown /debug/<x> paths falling through to 404.
    m_debug_requests_.inc();
    response = json_response(kDebugIndexJson);
  } else {
    const std::string body = "not found\n";
    response = "HTTP/1.0 404 Not Found\r\n"
               "Content-Type: text/plain; charset=utf-8\r\n"
               "Content-Length: " + std::to_string(body.size()) + "\r\n"
               "Connection: close\r\n\r\n" + body;
  }
  {
    std::lock_guard<std::mutex> lk(c->mutex);
    if (!c->doomed) {
      std::vector<std::uint8_t> bytes(response.begin(), response.end());
      c->ring_bytes += bytes.size();
      c->ring.push_back({std::move(bytes), false});
      c->doomed = true;  // HTTP/1.0: one response, then close
    }
  }
  flush_conn(c);
}

void Server::flush_pending() {
  std::vector<std::shared_ptr<Connection>> snapshot;
  {
    std::lock_guard<std::mutex> lk(conns_mutex_);
    snapshot.reserve(conns_.size());
    for (auto& [fd, c] : conns_) snapshot.push_back(c);
  }
  for (auto& c : snapshot) {
    bool pending;
    {
      std::lock_guard<std::mutex> lk(c->mutex);
      pending = !c->ring.empty() || c->doomed;
    }
    if (pending) flush_conn(c);
  }
}

void Server::flush_conn(const std::shared_ptr<Connection>& c) {
  {
    // Drain the ring to the socket. The lock is held across the
    // non-blocking send()s — each is a bounded copy into the kernel
    // buffer (or an immediate EAGAIN), so the engine thread's push can
    // wait at most one syscall, never a stalled peer.
    std::unique_lock<std::mutex> lk(c->mutex);
    while (!c->ring.empty()) {
      SendItem& item = c->ring.front();
      const std::size_t left = item.bytes.size() - c->front_off;
      const ssize_t r =
          write_some(c->fd, item.bytes.data() + c->front_off, left);
      if (r == kWouldBlock) break;
      if (r <= 0) {
        lk.unlock();
        close_conn(c, false);
        return;
      }
      m_bytes_tx_.inc(static_cast<std::uint64_t>(r));
      c->front_off += static_cast<std::size_t>(r);
      if (c->front_off == item.bytes.size()) {
        m_frames_tx_.inc();
        if (item.enqueued != support::Clock::time_point{}) {
          h_net_flush_[serve::rank(item.qos)].record(
              support::since_us(item.enqueued));
        }
        c->ring_bytes -= item.bytes.size();
        c->ring.pop_front();
        c->front_off = 0;
      }
    }
    const bool empty = c->ring.empty();
    const bool doomed = c->doomed;
    lk.unlock();
    if (empty && doomed) {
      close_conn(c, true);
      return;
    }
    if (!empty && !c->want_write) {
      reactor_.modify(c->fd, EPOLLIN | EPOLLOUT);
      c->want_write = true;
    } else if (empty && c->want_write) {
      reactor_.modify(c->fd, EPOLLIN);
      c->want_write = false;
    }
  }
}

void Server::close_conn(const std::shared_ptr<Connection>& c,
                        bool server_initiated) {
  {
    std::lock_guard<std::mutex> lk(conns_mutex_);
    if (conns_.erase(c->fd) == 0) return;  // already closed
    g_connections_.set(static_cast<double>(conns_.size()));
  }
  reactor_.remove(c->fd);
  ::close(c->fd);
  m_disconnects_.inc();
  host_.journal().push(support::EventKind::kNetDisconnect,
                       last_tick_.load(std::memory_order_relaxed), c->fd,
                       server_initiated ? 1 : 0);
  // A hung-up client's sessions go with it.
  for (const serve::SessionId id : c->owned) host_.close(id);
  if (!c->owned.empty()) {
    std::lock_guard<std::mutex> lk(sessions_mutex_);
    std::erase_if(sessions_, [&](const WireSession& ws) {
      return std::find(c->owned.begin(), c->owned.end(), ws.id) !=
             c->owned.end();
    });
  }
  c->owned.clear();
}

}  // namespace djstar::net
