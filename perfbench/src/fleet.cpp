// fleet_wire: a net::Server hosting 12 deterministic synthetic sessions,
// and one loopback Client, on the benchmark's thread, that opened and
// subscribed to all of them. The server's engine loop free-runs; the
// host's tick observer holds the engine thread until the next tick is
// due, so one fleet tick is due every audio period. The hold comes after
// FleetTick::elapsed_us is taken, so the overload detector never sees it.
// Tick n's frames are published when its hold ends, and each is timed
// from that due time to the client decoding it.
#include <poll.h>

#include <atomic>
#include <limits>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "djstar/net/client.hpp"
#include "djstar/net/server.hpp"
#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"

namespace perfbench {
namespace {

namespace dn = djstar::net;
namespace ds = djstar::serve;
using Snapshot = djstar::support::MetricsSnapshot;

constexpr unsigned kSessions = 12;
constexpr std::size_t kWarmupTicks = 64;
/// Every blocking client read gives up after this long.
constexpr int kReadTimeoutMs = 1000;
/// A round that has not delivered its last frame this long after it was
/// due is stopped and failed.
constexpr std::int64_t kStallNs = 3'000'000'000;
/// 4 MiB holds about a second of the fleet's frames, so a client that the
/// VM stalls for tens of ms is not disconnected as a slow consumer.
constexpr unsigned kSendRingKb = 4096;

/// 3 realtime, 6 standard, 3 besteffort.
ds::QoS qos_of(unsigned i) {
  return i < 3 ? ds::QoS::kRealtime
               : i < 9 ? ds::QoS::kStandard : ds::QoS::kBestEffort;
}

/// SyntheticSpec defaults (width 4 x depth 3, 15 us declared nodes) with
/// fixed-iteration work, so cycle k's audio is a pure function of
/// (spec, k).
ds::SyntheticSpec session_spec(std::uint64_t seed, unsigned i) {
  ds::SyntheticSpec s;
  s.name = "fleet-" + std::to_string(i);
  s.qos = qos_of(i);
  s.seed = derive_seed(seed, 100 + i);
  s.deterministic = true;
  return s;
}

dn::OpenSessionRequest wire_request(const ds::SyntheticSpec& s) {
  dn::OpenSessionRequest r;
  r.qos = static_cast<std::uint8_t>(s.qos);
  r.subscribe = true;
  r.deterministic = s.deterministic;
  r.deadline_us = s.deadline_us;
  r.width = s.width;
  r.depth = s.depth;
  r.node_cost_us = s.node_cost_us;
  r.jitter = s.jitter;
  r.sheddable_fraction = s.sheddable_fraction;
  r.seed = s.seed;
  r.name = s.name;
  return r;
}

/// Two pool threads. The fleet is admitted below the density bound, so
/// every frame is expected; the overload shed and the sessions' overrun
/// ladder react to ticks that the VM stalls, and change the audio, so
/// both are off.
ds::HostConfig host_config() {
  ds::HostConfig h;
  h.threads = 2;
  h.overload.trip_ticks = std::numeric_limits<unsigned>::max();
  h.supervisor.overrun_trip = std::numeric_limits<unsigned>::max();
  return h;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// What the tick observer records about host tick n, on the engine thread.
struct Tick {
  std::int64_t due = 0;       ///< when tick n's frames are published
  std::int64_t observed = 0;  ///< observer entry: tick n's work is done
  std::int64_t released = 0;  ///< end of the hold
  double elapsed_us = 0;      ///< FleetTick::elapsed_us (EDF dispatch)
  double hold_cpu_us = 0;     ///< thread CPU of the hold
  double cpu_us = 0;          ///< process CPU at the end of the hold
  unsigned sessions_run = 0;
  unsigned misses = 0;
};

/// Engine-thread state of one round. The benchmark's thread reads it
/// only after Server::stop() has joined the engine thread, except
/// `measure_from`, which it publishes once every session is active.
struct Pacer {
  std::vector<Tick> ticks;  ///< by host tick index
  /// Due time of tick 0; every later tick is due one period after the
  /// one before. Published for the client's waits.
  std::atomic<std::int64_t> base{0};
  bool overflow = false;
  bool traced_run = false;
  std::atomic<std::uint64_t> measure_from{
      std::numeric_limits<std::uint64_t>::max()};
  std::size_t windows = 0;
  /// Registry snapshots around each traced window, and /proc/stat at
  /// every window boundary.
  std::vector<std::pair<Snapshot, Snapshot>> traced_snaps;
  std::vector<CpuTimes> boundaries;
  ds::EngineHost* host = nullptr;

  void on_tick(const ds::FleetTick& t);
};

void Pacer::on_tick(const ds::FleetTick& t) {
  const std::int64_t observed = now_ns();
  if (t.index == 0) {
    base.store(observed + std::llround(period_ns()), std::memory_order_release);
  }
  const std::int64_t due =
      base.load(std::memory_order_relaxed) +
      std::llround(static_cast<double>(t.index) * period_ns());
  // Window boundaries fall between tick n's hold and tick n+1's work.
  const std::uint64_t from = measure_from.load(std::memory_order_acquire);
  if (t.index + 1 >= from && t.index + 1 <= from + windows * kWindowTicks &&
      (t.index + 1 - from) % kWindowTicks == 0) {
    const std::size_t w = (t.index + 1 - from) / kWindowTicks;
    boundaries.push_back(cpu_times());
    if (traced_run && w > 0 && (w - 1) % 2 == 1 && !traced_snaps.empty()) {
      traced_snaps.back().second = host->metrics().snapshot();
    }
    if (traced_run && w < windows && w % 2 == 1) {
      traced_snaps.emplace_back(host->metrics().snapshot(), Snapshot{});
    }
  }
  const double hold_cpu = pace_until(due);
  if (t.index >= ticks.size()) {
    overflow = true;
    return;
  }
  Tick& k = ticks[t.index];
  k.due = due;
  k.observed = observed;
  k.released = now_ns();
  k.elapsed_us = t.elapsed_us;
  k.hold_cpu_us = hold_cpu;
  k.cpu_us = process_cpu_us();
  k.sessions_run = t.sessions_run;
  k.misses = t.misses;
}

/// Wait on the client's thread until its socket is readable, for the
/// frames of a tick due at `due_ns`: sleep until shortly before, then
/// poll without blocking, so that the client's virtual CPU is awake when
/// the frames arrive. Gives up polling 2 ms after the due time (the
/// blocking read that follows has its own timeout). Returns the thread
/// CPU time the wait used, in us.
double wait_readable(int fd, std::int64_t due_ns) {
  const double cpu = pace_until(due_ns - 300'000);
  const double cpu0 = thread_cpu_us();
  pollfd pfd{fd, POLLIN, 0};
  while (::poll(&pfd, 1, 0) == 0 && now_ns() < due_ns + 2'000'000) {
  }
  return cpu + thread_cpu_us() - cpu0;
}

/// One decoded frame.
struct Frame {
  std::uint64_t tick = 0;
  unsigned session = 0;
  std::int64_t decoded = 0;
};

/// Everything one round leaves for the output check and the metrics.
struct Round {
  std::unique_ptr<Pacer> pacer;
  std::vector<Frame> frames;
  /// Per session, the digest of every frame it delivered, in order.
  std::vector<std::vector<std::uint64_t>> digests;
  /// Per tick, the thread CPU the client spent waiting for its frames.
  std::vector<double> client_wait_us;
  std::uint64_t first_measured = 0;
  Snapshot end;
};

/// The timed set-up and the paced windows of one round.
Round run_round(const Args& a, std::size_t windows, Result& r,
                std::vector<double>& setup_s) {
  Round rd;
  rd.pacer = std::make_unique<Pacer>();
  Pacer& p = *rd.pacer;
  p.windows = windows;
  p.traced_run = a.trace;
  p.ticks.resize(windows * kWindowTicks + kWarmupTicks + 8192);
  rd.client_wait_us.resize(p.ticks.size());
  rd.digests.resize(kSessions);

  const std::int64_t t0 = now_ns();
  dn::ServerConfig cfg;
  cfg.host = host_config();
  cfg.net.send_ring_kb = kSendRingKb;
  auto server = std::make_unique<dn::Server>(cfg);
  p.host = &server->host();
  server->host().set_tick_observer([&p](const ds::FleetTick& t) { p.on_tick(t); });
  server->start();
  const auto stop = [&](const std::string& why) {
    server->stop();
    r.fail(1, why);
  };

  dn::Client client;
  if (!client.connect(server->port(), kReadTimeoutMs)) {
    stop("cannot connect to the server");
    return rd;
  }
  std::unordered_map<std::uint64_t, unsigned> index;
  for (unsigned i = 0; i < kSessions; ++i) {
    const auto reply = client.open_session(wire_request(session_spec(a.seed, i)));
    if (!reply.has_value() ||
        reply->state != static_cast<std::uint8_t>(ds::SessionState::kActive)) {
      stop("session " + std::to_string(i) + " not admitted");
      return rd;
    }
    index[reply->id] = i;
  }

  // Read every frame. The warm-up ends kWarmupTicks after the first tick
  // on which every session ran; the windows follow.
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> last(kSessions, kNone);
  std::vector<bool> done(kSessions, false);
  unsigned started = 0, finished = 0;
  std::uint64_t all_active = 0, end = kNone;
  std::int64_t end_due = 0;
  rd.frames.reserve(windows * kWindowTicks * kSessions + 4096);
  std::uint64_t tick_done = kNone;  // every session's frame of it was read
  while (finished < kSessions) {
    if (tick_done != kNone && tick_done + 1 < rd.client_wait_us.size()) {
      rd.client_wait_us[tick_done + 1] += wait_readable(
          client.fd(), p.base.load(std::memory_order_acquire) +
                           std::llround(static_cast<double>(tick_done + 1) *
                                        period_ns()));
      tick_done = kNone;
    }
    const auto f = client.read_audio();
    const std::int64_t decoded = now_ns();
    if (!f.has_value()) {
      stop(client.last_error().has_value()
               ? "ERROR frame: " + client.last_error()->message
               : std::string("disconnect or read timeout"));
      return rd;
    }
    const auto it = index.find(f->header.session);
    if (it == index.end()) {
      stop("frame for unknown session " + std::to_string(f->header.session));
      return rd;
    }
    if (end_due != 0 && decoded > end_due + kStallNs) {
      stop("round stalled: its last frame was not delivered");
      return rd;
    }
    const unsigned s = it->second;
    const std::uint64_t tick = f->header.tick;
    if (done[s]) continue;
    if (last[s] == kNone) {
      all_active = std::max(all_active, tick);
      if (++started == kSessions) {
        rd.first_measured = all_active + kWarmupTicks;
        end = rd.first_measured + windows * kWindowTicks - 1;
        end_due = decoded + std::llround(static_cast<double>(end - tick) *
                                         period_ns());
        p.measure_from.store(rd.first_measured, std::memory_order_release);
      }
    } else if (tick != last[s] + 1) {
      r.fail(tick > last[s] ? tick - last[s] - 1 : 1,
             "session " + std::to_string(s) + " frame of tick " +
                 std::to_string(tick) + " follows " + std::to_string(last[s]));
    }
    last[s] = tick;
    rd.digests[s].push_back(digest(f->samples));
    rd.frames.push_back({tick, s, decoded});
    if (tick + 1 == rd.first_measured && s + 1 == kSessions) {
      setup_s.push_back(static_cast<double>(decoded - t0) / 1e9);
    }
    if (tick >= end) {
      done[s] = true;
      ++finished;
    }
    if (started == kSessions && s + 1 == kSessions) tick_done = tick;
    if (s == 0 && tick % 1024 == 0) r.sample_threads();
  }
  r.sample_threads();
  server->stop();
  rd.end = server->host().metrics().snapshot();
  if (p.overflow) r.fail(1, "more ticks than the tick record holds");
  if (p.boundaries.size() != windows + 1) {
    r.fail(1, "the engine passed a window boundary before it was set");
  }
  return rd;
}

/// Per session, the digests of its first `cycles` cycles, rendered by an
/// in-process host with the same sessions.
std::vector<std::vector<std::uint64_t>> reference(std::uint64_t seed,
                                                  std::size_t cycles) {
  ds::EngineHost host(host_config());
  std::vector<ds::SessionId> ids;
  std::vector<const djstar::audio::AudioBuffer*> outs;
  for (unsigned i = 0; i < kSessions; ++i) {
    ds::SessionSpec spec = ds::make_synthetic_session(session_spec(seed, i));
    outs.push_back(spec.output);
    ids.push_back(host.submit(std::move(spec)));
  }
  std::vector<std::vector<std::uint64_t>> out(kSessions);
  std::vector<std::uint64_t> seen(kSessions, 0);
  for (std::size_t guard = 0; guard < 4 * cycles + 1024; ++guard) {
    host.run_fleet_cycle();
    bool all = true;
    for (unsigned i = 0; i < kSessions; ++i) {
      const ds::Session* s = host.session(ids[i]);
      if (s != nullptr && s->counters().cycles != seen[i] &&
          out[i].size() < cycles) {
        seen[i] = s->counters().cycles;
        out[i].push_back(digest(*outs[i]));
      }
      all = all && out[i].size() >= cycles;
    }
    if (all) break;
  }
  return out;
}

const char* const kQoS[] = {"realtime", "standard", "besteffort"};

}  // namespace

Result run_fleet(const Args& a) {
  Result r;
  const std::size_t windows = windows_per_round(a.seconds, a.trace);
  std::vector<double>& setup_s = r.setup_s;
  std::vector<Round> rounds;
  for (unsigned round = 0; round < kRounds && r.failed == 0; ++round) {
    rounds.push_back(run_round(a, windows, r, setup_s));
  }
  const double rss = peak_rss_mib();

  // Output check: every session's frames, in order, against the
  // in-process render of the same session.
  std::size_t most = 0;
  for (const Round& rd : rounds) {
    for (const auto& d : rd.digests) most = std::max(most, d.size());
  }
  const auto want = reference(a.seed, most);
  for (std::size_t n = 0; n < rounds.size(); ++n) {
    for (unsigned s = 0; s < kSessions; ++s) {
      const auto& got = rounds[n].digests[s];
      r.attempted += got.size();
      for (std::size_t k = 0; k < got.size(); ++k) {
        if (k >= want[s].size() || got[k] != want[s][k]) {
          r.fail(1, "round " + std::to_string(n) + " session " +
                        std::to_string(s) + " frame " + std::to_string(k) +
                        " differs from the in-process render");
        }
      }
    }
    const Snapshot& end = rounds[n].end;
    for (const char* counter : {"djstar_net_audio_drops_total",
                                "djstar_net_backpressure_trips_total"}) {
      if (const double v = snapshot_value(end, counter); v != 0) {
        r.fail(static_cast<std::uint64_t>(v),
               "round " + std::to_string(n) + ": " + counter + " = " +
                   std::to_string(v));
      }
    }
  }
  if (r.attempted == 0) r.attempted = 1;
  if (r.failed != 0) return r;

  // Windows: ticks [first_measured + w * kWindowTicks, ...) of each round.
  std::vector<Window> ws;
  std::vector<const Tick*> traced_ticks;
  std::vector<TraceEvent> spans;
  Buckets queue[3], execute[3], flush[3];
  double bytes = 0, frames_tx = 0, missed = 0;
  CpuTimes host{};
  for (std::size_t n = 0; n < rounds.size(); ++n) {
    const Round& rd = rounds[n];
    const Pacer& p = *rd.pacer;
    const std::size_t base = ws.size();
    // Spans share the tick index, made unique across rounds.
    const std::uint64_t id0 = n * p.ticks.size();
    for (std::size_t w = 0; w < windows; ++w) {
      Window& win = ws.emplace_back();
      win.traced = a.trace && w % 2 == 1;
      const std::uint64_t a0 = rd.first_measured + w * kWindowTicks;
      const std::uint64_t b0 = a0 + kWindowTicks;
      win.cpu_us = p.ticks[b0 - 1].cpu_us - p.ticks[a0 - 1].cpu_us;
      for (std::uint64_t t = a0; t < b0; ++t) {
        const Tick& k = p.ticks[t];
        const std::int64_t start = p.ticks[t - 1].released;
        win.cpu_us -= k.hold_cpu_us + rd.client_wait_us[t];
        win.busy_us.push_back(us(k.observed - start));
        missed += k.misses;
        if (!win.traced) continue;
        traced_ticks.push_back(&k);
        // The tick, split into engine-side time (the previous tick's
        // fan-out, drain and admission) and dispatch.
        const std::int64_t split = std::max(
            start, k.observed - static_cast<std::int64_t>(k.elapsed_us * 1e3));
        spans.push_back({"tick", id0 + t, start, k.observed});
        spans.push_back({"engine_side", id0 + t, start, split});
        spans.push_back({"dispatch", id0 + t, split, k.observed});
      }
      win.steal_pct = steal_pct(p.boundaries[w], p.boundaries[w + 1]);
      host.steal += p.boundaries[w + 1].steal - p.boundaries[w].steal;
      host.total += p.boundaries[w + 1].total - p.boundaries[w].total;
    }
    for (const Frame& f : rd.frames) {
      if (f.tick < rd.first_measured) continue;
      Window& win = ws[base + (f.tick - rd.first_measured) / kWindowTicks];
      const std::int64_t due = p.ticks[f.tick].due;
      win.latency_us.push_back(us(f.decoded - due));
      win.ops += 1;
      if (win.traced) spans.push_back({"frame", id0 + f.tick, due, f.decoded});
    }
    for (const auto& [from, to] : p.traced_snaps) {
      for (unsigned q = 0; q < 3; ++q) {
        const std::string qn = kQoS[q];
        queue[q].add(from, to, "djstar_stage_edf_queue_us_" + qn);
        execute[q].add(from, to, "djstar_stage_execute_us_" + qn);
        flush[q].add(from, to, "djstar_stage_net_flush_us_" + qn);
      }
      bytes += snapshot_value(to, "djstar_net_bytes_tx_total") -
               snapshot_value(from, "djstar_net_bytes_tx_total");
      frames_tx += snapshot_value(to, "djstar_net_audio_frames_total") -
                   snapshot_value(from, "djstar_net_audio_frames_total");
    }
  }
  r.steal_pct = steal_pct(CpuTimes{}, host);
  auto& m = r.metrics;
  r.windows = window_json(ws);
  if (!a.trace) {
    window_metrics(ws, m);
    m["peak_rss_mib"] = rss;
    m["setup_s"] = quantile(setup_s, 0.5);
    return r;
  }

  trace_overhead(ws, m);
  std::vector<double> dispatch, per_session, engine_side, late;
  for (const Tick* k : traced_ticks) {
    const double busy = us(k->observed - (k - 1)->released);
    dispatch.push_back(k->elapsed_us);
    if (k->sessions_run != 0) per_session.push_back(k->elapsed_us / k->sessions_run);
    engine_side.push_back(busy - k->elapsed_us);
    late.push_back(us(k->released - k->due));
  }
  m["serve.dispatch_us_p50"] = quantile(dispatch, 0.5);
  m["serve.session_cycle_us_p50"] = quantile(per_session, 0.5);
  for (unsigned q = 0; q < 3; ++q) {
    m[std::string("serve.stage_queue_us_p50.") + kQoS[q]] = queue[q].quantile(0.5);
    m[std::string("serve.stage_execute_us_p50.") + kQoS[q]] =
        execute[q].quantile(0.5);
    m[std::string("net.flush_us_p50.") + kQoS[q]] = flush[q].quantile(0.5);
  }
  m["net.engine_side_us_p50"] = quantile(engine_side, 0.5);
  m["net.bytes_per_frame"] = frames_tx == 0 ? 0.0 : bytes / frames_tx;
  std::vector<double> lat;
  for (const Window& w : ws) {
    if (w.traced) lat.insert(lat.end(), w.latency_us.begin(), w.latency_us.end());
  }
  m["engine.latency_p99_us"] = quantile(lat, 0.99);
  m["engine.latency_max_us"] = quantile(lat, 1.0);
  m["serve.misses"] = missed;
  m["gen.late_p50_us"] = quantile(late, 0.5);
  m["gen.late_p99_us"] = quantile(late, 0.99);
  if (!a.trace_out.empty() && !write_chrome(a.trace_out, spans)) {
    r.fail(1, "cannot write " + a.trace_out);
  }
  return r;
}

}  // namespace perfbench
