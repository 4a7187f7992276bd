// bench/degradation.cpp
// Cost of the fault-tolerance layer (DESIGN.md §8): run_cycle() on a
// supervised engine — watchdog arm/disarm, output validation, ladder
// bookkeeping — must stay under 2% overhead versus an unsupervised one
// when no fault fires. Also demonstrates the ladder under a seeded fault
// plan and records how cycles distribute across degradation levels.
#include <cmath>
#include <filesystem>

#include "bench_common.hpp"
#include "djstar/core/fault.hpp"
#include "djstar/engine/supervisor.hpp"

int main() {
  using namespace djstar;
  bench::banner("degradation — supervised APC overhead & ladder",
                "fault-free supervision costs < 2% of the raw APC");

  const std::size_t iters = bench::measure_iters();
  support::CsvWriter csv;
  csv.cells("strategy", "raw_mean_us", "supervised_mean_us", "overhead_pct",
            "raw_p99_us", "supervised_p99_us");

  std::printf("fault-free overhead (%zu APCs per run, 4 threads):\n\n", iters);
  std::printf("  %-6s %12s %12s %10s %12s\n", "", "raw us", "superv us",
              "overhead", "superv p99");

  for (core::Strategy s : core::kParallelStrategies) {
    engine::EngineConfig cfg;
    cfg.strategy = s;
    cfg.threads = 4;

    engine::AudioEngine raw(cfg);
    engine::AudioEngine sup(cfg);
    sup.enable_supervision();  // watchdog on, defaults — the shipping setup

    // Interleave the two engines in short batches so OS noise and
    // frequency drift hit both measurements equally.
    const std::size_t kBatch = 50;
    raw.run_cycles(kBatch);
    sup.run_cycles(kBatch);
    raw.monitor().reset();
    sup.monitor().reset();
    for (std::size_t done = 0; done < iters; done += kBatch) {
      const std::size_t n = std::min(kBatch, iters - done);
      raw.run_cycles(n);
      sup.run_cycles(n);
    }
    const double raw_mean = raw.monitor().total().mean();
    const double raw_p99 = raw.monitor().p99();
    const double sup_mean = sup.monitor().total().mean();
    const double sup_p99 = sup.monitor().p99();

    const double overhead_pct = 100.0 * (sup_mean - raw_mean) / raw_mean;
    std::printf("  %-6s %12.1f %12.1f %9.2f%% %12.1f\n",
                bench::strategy_label(s), raw_mean, sup_mean, overhead_pct,
                sup_p99);
    csv.cells(core::to_string(s), raw_mean, sup_mean, overhead_pct, raw_p99,
              sup_p99);
  }

  // Ladder demonstration: a seeded fault mix on the BUSY engine; every
  // transition and the per-level cycle split come out of the monitor.
  {
    engine::EngineConfig cfg;
    cfg.strategy = core::Strategy::kBusyWait;
    cfg.threads = 4;
    engine::AudioEngine e(cfg);

    engine::SupervisorConfig sc;
    sc.fault_trip = 1;
    sc.recover_cycles = 64;
    e.enable_supervision(sc);

    core::chaos::FaultPlan plan;
    plan.seed = 42;
    plan.throw_permille = 2;
    plan.latency_permille = 10;
    plan.stall_permille = 1;
    e.arm_faults(plan);

    e.run_cycles(iters);

    const auto& st = e.supervisor().stats();
    std::printf("\nladder under faults (BUSY, seed %llu, %zu APCs):\n",
                static_cast<unsigned long long>(plan.seed), iters);
    std::printf("  faults %llu  cancels %llu  overruns %llu  recoveries %llu  "
                "fallback packets %llu\n",
                static_cast<unsigned long long>(st.faults),
                static_cast<unsigned long long>(st.cancels),
                static_cast<unsigned long long>(st.overruns),
                static_cast<unsigned long long>(st.recoveries),
                static_cast<unsigned long long>(st.fallback_emissions));
    std::printf("  %-22s %10s %12s\n", "level", "cycles", "mean us");
    for (unsigned l = 0; l < engine::kDegradationLevelCount; ++l) {
      const auto cycles = e.monitor().level_cycles(l);
      if (cycles == 0) continue;
      std::printf("  %-22s %10zu %12.1f\n",
                  engine::to_string(static_cast<engine::DegradationLevel>(l)),
                  cycles, e.monitor().level_total(l).mean());
    }
    std::printf("  transitions logged: %zu\n",
                e.supervisor().transitions().size());
  }

  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const auto path = bench::out_path("degradation.csv", "results");
  if (csv.save(path)) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
