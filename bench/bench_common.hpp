// bench/bench_common.hpp
// Shared plumbing for the per-table/per-figure reproduction harnesses.
//
// Every harness prints (a) the paper's reported numbers, (b) the
// simulated reproduction on a virtual 4-core machine (the paper itself
// used RESCON simulation for its schedule analyses), and, where it makes
// sense, (c) numbers measured live on this host. The host of record for
// this repository is a 4-vCPU virtual machine, half the paper's 8-core
// testbed — see DESIGN.md §2 and EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/engine/djstar_graph.hpp"
#include "djstar/engine/engine.hpp"
#include "djstar/sim/sampler.hpp"
#include "djstar/sim/schedulers.hpp"
#include "djstar/sim/strategy_sim.hpp"
#include "djstar/support/ascii_chart.hpp"
#include "djstar/support/csv.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/stats.hpp"

namespace djstar::bench {

/// A positive-integer knob: `fallback` when `var` is unset; a blank,
/// zero or malformed value throws std::invalid_argument.
inline std::size_t iters_knob(const char* var, std::size_t fallback) {
  const auto text = support::env::get(var);
  if (!text) return fallback;
  const auto n = support::env::parse_uint(*text);
  if (!n || *n == 0) {
    throw std::invalid_argument(std::string(var) +
                                ": expected a positive integer, got '" +
                                *text + "'");
  }
  return static_cast<std::size_t>(*n);
}

/// Iteration count for simulated sweeps; the paper uses 10k APCs.
inline std::size_t sim_iters() {
  return iters_knob("DJSTAR_SIM_ITERS", 10000);
}

/// Iteration count for live measured sweeps (kept smaller by default so
/// the full bench suite stays fast; export DJSTAR_MEASURE_ITERS=10000
/// for a paper-scale run).
inline std::size_t measure_iters() {
  return iters_knob("DJSTAR_MEASURE_ITERS", 1500);
}

/// The canonical graph + reference durations + compiled form, bundled.
struct ReferenceSetup {
  engine::DjStarGraph graph;
  std::unique_ptr<core::CompiledGraph> compiled;
  sim::SimGraph sim;

  ReferenceSetup()
      : graph() {
    compiled = std::make_unique<core::CompiledGraph>(graph.graph());
    sim = sim::SimGraph::from_compiled(*compiled,
                                       graph.reference_durations());
  }
};

/// Simulate `iters` cycles of `strategy` on `threads` virtual cores with
/// per-cycle sampled durations; returns makespans in microseconds.
inline std::vector<double> simulate_series(const ReferenceSetup& ref,
                                           sim::SimStrategy strategy,
                                           std::uint32_t threads,
                                           std::size_t iters,
                                           std::uint64_t seed = 42,
                                           const sim::OverheadModel& ov = {}) {
  sim::SamplerConfig cfg;
  cfg.seed = seed;
  sim::DurationSampler sampler(ref.sim.duration_us, cfg);
  sim::SimGraph g = ref.sim;
  std::vector<double> out;
  out.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    sampler.sample(g.duration_us);
    out.push_back(sim::simulate_strategy(g, strategy, threads, ov).makespan_us);
  }
  return out;
}

/// Simulated *sequential* series: makespan = total work each cycle.
inline std::vector<double> simulate_sequential_series(
    const ReferenceSetup& ref, std::size_t iters, std::uint64_t seed = 42) {
  sim::SamplerConfig cfg;
  cfg.seed = seed;
  sim::DurationSampler sampler(ref.sim.duration_us, cfg);
  std::vector<double> durations;
  std::vector<double> out;
  out.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    sampler.sample(durations);
    double sum = 0;
    for (double d : durations) sum += d;
    out.push_back(sum);
  }
  return out;
}

/// Measure the live engine's task-graph times on this host.
inline std::vector<double> measure_series(core::Strategy strategy,
                                          unsigned threads,
                                          std::size_t iters) {
  engine::EngineConfig cfg;
  cfg.strategy = strategy;
  cfg.threads = threads;
  engine::AudioEngine e(cfg);
  e.run_cycles(20);  // warm up caches / decoder lock
  std::vector<double> out;
  out.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) out.push_back(e.run_cycle().graph_us);
  return out;
}

inline double mean_of(const std::vector<double>& xs) {
  support::OnlineStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

inline sim::SimStrategy to_sim(core::Strategy s) {
  switch (s) {
    case core::Strategy::kBusyWait: return sim::SimStrategy::kBusy;
    case core::Strategy::kSleep: return sim::SimStrategy::kSleep;
    default: return sim::SimStrategy::kWorkStealing;
  }
}

inline const char* strategy_label(core::Strategy s) {
  switch (s) {
    case core::Strategy::kSequential: return "SEQ";
    case core::Strategy::kBusyWait: return "BUSY";
    case core::Strategy::kSleep: return "SLEEP";
    case core::Strategy::kWorkStealing: return "WS";
  }
  return "?";
}

/// Banner every harness prints.
inline void banner(const char* experiment, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("djstar reproduction — %s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n\n");
}

/// Where a harness writes `file`: $DJSTAR_BENCH_OUT/<file> when set,
/// else <fallback_dir>/<file> (default: the cwd).
inline std::string out_path(const std::string& file,
                            const std::string& fallback_dir = "") {
  if (auto dir = support::env::get("DJSTAR_BENCH_OUT", "path")) {
    return *dir + "/" + file;
  }
  return fallback_dir.empty() ? file : fallback_dir + "/" + file;
}

}  // namespace djstar::bench
