// dj_paced / dj_observed: the AudioEngine driven by an open loop, one APC
// due every audio period, each timed from its due time. The benchmark's
// thread calls run_cycle() and is worker 0 of the engine's 4 threads.
#include <memory>

#include "bench.hpp"
#include "djstar/engine/engine.hpp"

namespace perfbench {
namespace {

namespace de = djstar::engine;
namespace dc = djstar::core;

constexpr std::size_t kWarmupCycles = 64;
/// Sequential graph runs averaged per node by measure_node_durations().
constexpr std::size_t kKernelCycles = 500;

de::EngineConfig dj_config(std::uint64_t seed, bool observed) {
  de::EngineConfig cfg;
  for (unsigned d = 0; d < 4; ++d) cfg.track_seeds[d] = derive_seed(seed, d);
  if (observed) cfg.strategy = dc::Strategy::kWorkStealing;
  return cfg;
}

/// The timed set-up: construction, the observability layers, warm-up.
std::unique_ptr<de::AudioEngine> set_up(const de::EngineConfig& cfg,
                                        bool observed,
                                        std::vector<std::uint64_t>& digests) {
  auto e = std::make_unique<de::AudioEngine>(cfg);
  if (observed) {
    e->enable_telemetry();
    de::ProfilerConfig prof;
    prof.mode = de::ProfMode::kAttrib;
    e->enable_profiler(prof);
    djstar::support::SloConfig slo;
    slo.enabled = true;
    e->enable_slo(slo);
  }
  for (std::size_t i = 0; i < kWarmupCycles; ++i) {
    e->run_cycle();
    digests.push_back(digest(e->output()));
  }
  return e;
}

struct Cycle {
  std::uint64_t id = 0;
  std::int64_t due = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  de::CycleBreakdown c;
};

template <typename F>
std::vector<double> column(const std::vector<Cycle>& cs, F f) {
  std::vector<double> out;
  out.reserve(cs.size());
  for (const Cycle& c : cs) out.push_back(f(c));
  return out;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// run_cycle() time left after its four phases: the monitor, telemetry,
/// profiler and SLO bookkeeping.
double post_cycle_us(const Cycle& c) {
  return us(c.end - c.start) -
         (c.c.tp_us + c.c.gp_us + c.c.graph_us + c.c.vc_us);
}

/// Spans of the traced cycles: one per run_cycle(), with the tp/gp/graph/
/// vc phases laid end to end from the returned breakdown.
std::vector<TraceEvent> cycle_spans(const std::vector<Cycle>& cs) {
  std::vector<TraceEvent> out;
  out.reserve(cs.size() * 5);
  for (const Cycle& c : cs) {
    out.push_back({"apc", c.id, c.start, c.end});
    std::int64_t t = c.start;
    for (const auto& [name, phase_us] :
         {std::pair{"timecode", c.c.tp_us}, std::pair{"stretch", c.c.gp_us},
          std::pair{"graph", c.c.graph_us}, std::pair{"vc", c.c.vc_us}}) {
      const std::int64_t end = t + std::llround(phase_us * 1e3);
      out.push_back({name, c.id, t, end});
      t = end;
    }
  }
  return out;
}

}  // namespace

Result run_dj(const Args& a, bool observed) {
  Result r;
  const de::EngineConfig cfg = dj_config(a.seed, observed);
  const std::size_t per_round = windows_per_round(a.seconds, a.trace) *
                                kWindowTicks;

  std::vector<double>& setup_s = r.setup_s;
  std::vector<Window> windows;
  std::vector<Cycle> traced;  // the traced windows' cycles
  traced.reserve(kRounds * per_round / 2);
  // Per round: the warm-up packets, then the windows'.
  std::vector<std::vector<std::uint64_t>> digests(kRounds);
  dc::ExecutorStats::Snapshot counts{};  // summed over the traced windows
  std::size_t misses = 0;
  CpuTimes host{};

  for (unsigned round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    auto e = set_up(cfg, observed, digests[round]);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    r.sample_threads();

    const auto misses0 = e->monitor().misses();
    double cpu_mark = 0;
    CpuTimes steal_mark{};
    dc::ExecutorStats::Snapshot counts0{};
    const auto close_window = [&] {
      Window& w = windows.back();
      w.cpu_us += process_cpu_us() - cpu_mark;
      const CpuTimes now = cpu_times();
      w.steal_pct = steal_pct(steal_mark, now);
      host.steal += now.steal - steal_mark.steal;
      host.total += now.total - steal_mark.total;
      if (w.traced) {
        const auto c = e->executor().stats().snapshot();
        counts.busy_wait_spins += c.busy_wait_spins - counts0.busy_wait_spins;
        counts.steals += c.steals - counts0.steals;
        counts.steal_failures += c.steal_failures - counts0.steal_failures;
        counts.sleeps += c.sleeps - counts0.sleeps;
        counts.wakeups += c.wakeups - counts0.wakeups;
      }
    };
    const std::int64_t base = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < per_round; ++i) {
      if (i % kWindowTicks == 0) {
        if (i != 0) close_window();
        Window& w = windows.emplace_back();
        w.traced = a.trace && (i / kWindowTicks) % 2 == 1;
        if (w.traced) counts0 = e->executor().stats().snapshot();
        steal_mark = cpu_times();
        cpu_mark = process_cpu_us();
      }
      Cycle c;
      c.id = round * per_round + i;
      c.due = base + std::llround(static_cast<double>(i) * period_ns());
      Window& w = windows.back();
      w.cpu_us -= pace_until(c.due);
      c.start = now_ns();
      c.c = e->run_cycle();
      c.end = now_ns();
      w.latency_us.push_back(us(c.end - c.due));
      w.busy_us.push_back(us(c.end - c.start));
      w.ops += 1;
      digests[round].push_back(digest(e->output()));
      if (w.traced) traced.push_back(c);
      if (i % 1024 == 0) r.sample_threads();
    }
    close_window();
    misses += e->monitor().misses() - misses0;
    r.sample_threads();
  }
  r.steal_pct = steal_pct(CpuTimes{}, host);
  const double rss = peak_rss_mib();

  // Output check: every round's packets against a sequential render from
  // the same seeds.
  de::EngineConfig ref_cfg = cfg;
  ref_cfg.strategy = dc::Strategy::kSequential;
  ref_cfg.threads = 1;
  de::AudioEngine ref(ref_cfg);
  r.attempted = kRounds * per_round;
  for (std::size_t i = 0; i < kWarmupCycles + per_round; ++i) {
    ref.run_cycle();
    const std::uint64_t want = digest(ref.output());
    for (unsigned round = 0; round < kRounds; ++round) {
      if (digests[round][i] != want) {
        r.fail(1, "round " + std::to_string(round) + " packet " +
                      std::to_string(i) + " differs from sequential");
      }
    }
  }

  auto& m = r.metrics;
  r.windows = window_json(windows);
  if (!a.trace) {
    window_metrics(windows, m);
    m["peak_rss_mib"] = rss;
    m["setup_s"] = quantile(setup_s, 0.5);
    return r;
  }

  // Per-layer metrics from the traced windows.
  const double traced_ops = static_cast<double>(traced.size());
  trace_overhead(windows, m);
  m["timecode.tp_us_mean"] =
      mean(column(traced, [](const Cycle& c) { return c.c.tp_us; }));
  const auto gp = column(traced, [](const Cycle& c) { return c.c.gp_us; });
  m["stretch.gp_us_mean"] = mean(gp);
  m["stretch.gp_us_p90"] = quantile(gp, 0.9);
  const auto graph =
      column(traced, [](const Cycle& c) { return c.c.graph_us; });
  m["core.graph_us_p50"] = quantile(graph, 0.5);
  m["support.post_cycle_us_p50"] = quantile(column(traced, post_cycle_us), 0.5);
  const auto per_cycle = [&](std::uint64_t v) {
    return static_cast<double>(v) / traced_ops;
  };
  m["core.spins_per_cycle"] = per_cycle(counts.busy_wait_spins);
  m["core.steals_per_cycle"] = per_cycle(counts.steals);
  m["core.sleeps_per_cycle"] = per_cycle(counts.sleeps);
  m["core.wakeups_per_cycle"] = per_cycle(counts.wakeups);
  const std::uint64_t probes = counts.steals + counts.steal_failures;
  m["core.steal_success_ratio"] =
      probes == 0 ? 0.0
                  : static_cast<double>(counts.steals) /
                        static_cast<double>(probes);
  const auto lat =
      column(traced, [](const Cycle& c) { return us(c.end - c.due); });
  m["engine.latency_p99_us"] = quantile(lat, 0.99);
  m["engine.latency_max_us"] = quantile(lat, 1.0);
  m["engine.misses"] = static_cast<double>(misses);
  const auto late =
      column(traced, [](const Cycle& c) { return us(c.start - c.due); });
  m["gen.late_p50_us"] = quantile(late, 0.5);
  m["gen.late_p99_us"] = quantile(late, 0.99);

  // Single-thread kernel baseline, summed by graph section: the base of
  // core.speedup.
  const auto node_us = ref.measure_node_durations(kKernelCycles);
  double kernel = 0;
  for (dc::NodeId id = 0; id < node_us.size(); ++id) {
    m["dsp.kernel_us." + ref.compiled().section(id)] += node_us[id];
    kernel += node_us[id];
  }
  m["dsp.kernel_us_per_cycle"] = kernel;
  m["core.speedup"] = kernel / mean(graph);
  if (!a.trace_out.empty() && !write_chrome(a.trace_out, cycle_spans(traced))) {
    r.fail(1, "cannot write " + a.trace_out);
  }
  return r;
}

}  // namespace perfbench
