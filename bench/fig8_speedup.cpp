// bench/fig8_speedup.cpp
// Reproduces paper Figure 8: speedup of the three strategies vs the
// sequential execution, 1..4 threads. Paper: speedup rises to ~2.40 on
// four cores (linear speedup impossible due to the dependency structure).
#include "bench_common.hpp"

int main() {
  using namespace djstar;
  bench::banner("Figure 8 — speedup comparison of the scheduling strategies",
                "speedup reaches ~2.40 at 4 threads; BUSY >= WS >= SLEEP");

  const std::size_t iters = bench::sim_iters();
  bench::ReferenceSetup ref;

  const double seq_ms =
      bench::mean_of(bench::simulate_sequential_series(ref, iters)) / 1000.0;
  std::printf("simulated sequential baseline: %.4f ms\n\n", seq_ms);

  support::CsvWriter csv;
  csv.cells("strategy", "threads", "speedup");
  std::printf("simulated speedup (virtual 4-core machine):\n\n");
  std::printf("  %-6s %8s %8s %8s %8s\n", "", "1", "2", "3", "4");

  double at4[3];
  int row = 0;
  std::vector<support::Bar> bars;
  for (core::Strategy s : core::kParallelStrategies) {
    std::printf("  %-6s", bench::strategy_label(s));
    for (unsigned t = 1; t <= 4; ++t) {
      const double ms =
          bench::mean_of(bench::simulate_series(ref, bench::to_sim(s), t, iters)) /
          1000.0;
      const double speedup = seq_ms / ms;
      std::printf(" %8.2f", speedup);
      csv.cells(core::to_string(s), t, speedup);
      if (t == 4) {
        at4[row] = speedup;
        bars.push_back({std::string(bench::strategy_label(s)) + " @4", speedup});
      }
    }
    std::printf("\n");
    ++row;
  }

  std::printf("\n%s\n",
              support::render_bars(bars, 40, "Speedup at 4 threads", "x").c_str());
  std::printf("paper at 4 threads: BUSY 2.39x, SLEEP 2.39x, WS 2.37x (avg ~2.4)\n");
  std::printf("simulated:          BUSY %.2fx, SLEEP %.2fx, WS %.2fx\n",
              at4[0], at4[1], at4[2]);

  const auto path = bench::out_path("fig8_speedup.csv");
  if (csv.save(path)) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
