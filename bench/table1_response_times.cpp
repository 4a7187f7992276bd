// bench/table1_response_times.cpp
// Reproduces paper Table I: average task-graph response times (ms) for
// BUSY / SLEEP / WS over 1..4 threads, 10k APCs each.
//
// Two reproductions are reported:
//  * simulated — virtual-time models on a modelled 4-core machine with
//    calibrated overheads (the shape-faithful reproduction, whatever
//    the host's core count);
//  * measured — the real executors running the real DSP graph on this
//    host (absolute values are host-dependent).
#include "bench_common.hpp"

namespace {

// Paper Table I (milliseconds).
constexpr double kPaper[3][4] = {
    {1.0785, 0.6371, 0.5683, 0.4516},  // BUSY
    {1.1130, 0.6447, 0.6444, 0.4657},  // SLEEP
    {1.1111, 0.6394, 0.5844, 0.4690},  // WS
};

}  // namespace

int main() {
  using namespace djstar;
  bench::banner("Table I — task graph average response times (ms)",
                "BUSY 1.0785/0.6371/0.5683/0.4516 | SLEEP 1.1130/0.6447/0.6444/0.4657 | WS 1.1111/0.6394/0.5844/0.4690");

  const std::size_t iters = bench::sim_iters();
  bench::ReferenceSetup ref;

  std::printf("simulated (virtual 4-core machine, %zu iterations/cell):\n\n", iters);
  std::printf("  %-6s %10s %10s %10s %10s\n", "", "1", "2", "3", "4");
  support::CsvWriter csv;
  csv.cells("mode", "strategy", "threads", "mean_ms", "paper_ms");

  double sim_table[3][4];
  int row = 0;
  for (core::Strategy s : core::kParallelStrategies) {
    std::printf("  %-6s", bench::strategy_label(s));
    for (unsigned t = 1; t <= 4; ++t) {
      const auto series =
          bench::simulate_series(ref, bench::to_sim(s), t, iters);
      const double ms = bench::mean_of(series) / 1000.0;
      sim_table[row][t - 1] = ms;
      std::printf(" %10.4f", ms);
      csv.cells("sim", core::to_string(s), t, ms, kPaper[row][t - 1]);
    }
    std::printf("\n");
    ++row;
  }

  std::printf("\npaper (8-core AMD FX-8120, 10k iterations/cell):\n\n");
  std::printf("  %-6s %10s %10s %10s %10s\n", "", "1", "2", "3", "4");
  const char* names[3] = {"BUSY", "SLEEP", "WS"};
  for (int r = 0; r < 3; ++r) {
    std::printf("  %-6s", names[r]);
    for (int t = 0; t < 4; ++t) std::printf(" %10.4f", kPaper[r][t]);
    std::printf("\n");
  }

  std::printf("\nshape checks (simulated vs paper):\n");
  auto ratio = [&](int r, int c) { return sim_table[r][c] / sim_table[r][0]; };
  std::printf("  BUSY 4-thread speedup   %.2fx (paper %.2fx)\n",
              1.0 / ratio(0, 3), kPaper[0][0] / kPaper[0][3]);
  std::printf("  BUSY <= SLEEP at 4 thr  %s (paper: yes)\n",
              sim_table[0][3] <= sim_table[1][3] ? "yes" : "NO");
  std::printf("  BUSY <= WS at 4 thr     %s (paper: yes)\n",
              sim_table[0][3] <= sim_table[2][3] ? "yes" : "NO");

  const std::size_t miters = bench::measure_iters();
  std::printf("\nmeasured on this host (%zu iterations/cell; host cores are NOT\n"
              "the paper's testbed — see EXPERIMENTS.md):\n\n",
              miters);
  std::printf("  %-6s %10s %10s %10s %10s\n", "", "1", "2", "3", "4");
  for (core::Strategy s : core::kParallelStrategies) {
    std::printf("  %-6s", bench::strategy_label(s));
    for (unsigned t = 1; t <= 4; ++t) {
      const auto series = bench::measure_series(s, t, miters);
      const double ms = bench::mean_of(series) / 1000.0;
      std::printf(" %10.4f", ms);
      csv.cells("measured", core::to_string(s), t, ms, kPaper[0][0]);
    }
    std::printf("\n");
  }
  {
    const auto series =
        bench::measure_series(core::Strategy::kSequential, 1, miters);
    std::printf("  %-6s %10.4f\n", "SEQ", bench::mean_of(series) / 1000.0);
  }

  const auto path = bench::out_path("table1.csv");
  if (csv.save(path)) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
