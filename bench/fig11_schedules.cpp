// bench/fig11_schedules.cpp
// Reproduces paper Figure 11: typical schedule realizations for the
// three strategies with four threads — which thread ran which node when,
// busy-wait boxes (gray in the paper, '.' here) and sleeping gaps.
//
// Two renderings: (a) virtual-time simulation at paper scale, picking
// the realization whose makespan is closest to the strategy's average
// (the paper does the same: "typical realizations ... with execution
// times close to their respective average"); (b) a live trace of the
// real executor on this host.
//
// Pass --seed=roundrobin to ablate the work-stealing section-affinity
// seeding (DESIGN.md §5).
#include <cstring>

#include "bench_common.hpp"
#include "djstar/support/flight.hpp"

namespace {

djstar::sim::ScheduleResult typical_realization(
    const djstar::bench::ReferenceSetup& ref, djstar::sim::SimStrategy s,
    std::size_t draws) {
  using namespace djstar;
  sim::SamplerConfig cfg;
  cfg.seed = 2024;
  sim::DurationSampler sampler(ref.sim.duration_us, cfg);
  sim::SimGraph g = ref.sim;

  // First pass: average makespan.
  std::vector<std::vector<double>> all(draws);
  double mean = 0;
  std::vector<double> spans(draws);
  for (std::size_t i = 0; i < draws; ++i) {
    sampler.sample(g.duration_us);
    all[i] = g.duration_us;
    spans[i] = sim::simulate_strategy(g, s, 4).makespan_us;
    mean += spans[i];
  }
  mean /= static_cast<double>(draws);
  // Pick the draw closest to the mean and re-simulate it.
  std::size_t best = 0;
  for (std::size_t i = 1; i < draws; ++i) {
    if (std::abs(spans[i] - mean) < std::abs(spans[best] - mean)) best = i;
  }
  g.duration_us = all[best];
  return sim::simulate_strategy(g, s, 4);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace djstar;
  bool ablate_seed = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed=roundrobin") == 0) ablate_seed = true;
  }

  bench::banner("Figure 11 — typical schedule realizations (4 threads)",
                "BUSY: many active-waiting boxes; SLEEP: similar but sleeping; "
                "WS: small nodes early, sleeps only at the end");

  bench::ReferenceSetup ref;

  for (core::Strategy s : core::kParallelStrategies) {
    const auto r = typical_realization(ref, bench::to_sim(s), 200);
    std::printf("%s\n",
                support::render_gantt(
                    r.to_spans(), 100, r.makespan_us,
                    std::string("simulated ") + bench::strategy_label(s) +
                        "  (makespan " + std::to_string(static_cast<int>(r.makespan_us)) +
                        " us)")
                    .c_str());
  }

  std::printf("\nlive traces on this host (real executors, real DSP):\n\n");
  for (core::Strategy s : core::kParallelStrategies) {
    engine::EngineConfig cfg;
    cfg.strategy = s;
    cfg.threads = 4;
    if (ablate_seed && s == core::Strategy::kWorkStealing) {
      cfg.ws.seed = core::SeedMode::kRoundRobin;
    }
    engine::AudioEngine e(cfg);
    e.enable_telemetry();  // keeps the engine's span ring recording
    e.run_cycles(50);      // warm up

    // Trace a handful of cycles; keep the one nearest the running mean.
    const support::FlightRecorder& ring = e.telemetry().flight();
    const double mean = e.monitor().graph().mean();
    std::vector<support::TraceSpan> best_spans;
    double best_delta = 1e18;
    for (int i = 0; i < 20; ++i) {
      const double us = e.run_cycle().graph_us;
      if (std::abs(us - mean) < best_delta) {
        best_delta = std::abs(us - mean);
        ring.collect_cycle(ring.cycle(), best_spans);
      }
    }
    std::printf("%s\n",
                support::render_gantt(best_spans, 100, 0,
                                      std::string("measured ") +
                                          bench::strategy_label(s) +
                                          (ablate_seed && s == core::Strategy::kWorkStealing
                                               ? " (round-robin seed ablation)"
                                               : ""))
                    .c_str());
  }
  return 0;
}
