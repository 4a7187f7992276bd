// bench/node_profile.cpp
// The paper's §IV methodology, end to end, on this host: "we measured
// the average vertex computation time using 10k APC executions" and fed
// them to the scheduling simulator. Here: measure per-node means of the
// real DSP graph, print them against the paper-scale reference
// durations, and run the earliest-start / 4-core schedule analyses on
// the measured profile.
#include "bench_common.hpp"
#include "djstar/support/cost_table.hpp"

int main() {
  using namespace djstar;
  bench::banner("§IV methodology — per-node profile of the live graph",
                "measure average vertex times over many APCs, then simulate");

  const std::size_t iters = bench::measure_iters();
  engine::EngineConfig cfg;
  cfg.strategy = core::Strategy::kSequential;
  cfg.threads = 1;
  engine::AudioEngine e(cfg);
  e.run_cycles(20);

  // The paper's 67 nodes: the engine's deck jobs run untimed, and the
  // schedules below are the paper's graph's.
  const auto measured = e.measure_node_durations(iters);
  const bench::ReferenceSetup ref;
  const auto& reference = ref.sim.duration_us;
  const auto& cg = *ref.compiled;

  double measured_sum = 0, reference_sum = 0;
  std::printf("per-node mean execution time over %zu APCs:\n\n", iters);
  std::printf("  %-14s %12s %14s\n", "node", "host (us)", "paper-scale (us)");
  for (core::NodeId n = 0; n < cg.node_count(); ++n) {
    measured_sum += measured[n];
    reference_sum += reference[n];
    // Print the interesting rows; utility nodes are all alike.
    if (measured[n] > 1.0 || n < 4) {
      std::printf("  %-14s %12.2f %14.1f\n", cg.name(n).c_str(), measured[n],
                  reference[n]);
    }
  }
  std::printf("  %-14s %12.2f %14.1f\n", "TOTAL", measured_sum, reference_sum);

  support::CsvWriter csv;
  csv.cells("node", "name", "host_us", "reference_us");
  for (core::NodeId n = 0; n < cg.node_count(); ++n) {
    csv.cells(n, cg.name(n), measured[n], reference[n]);
  }
  const auto path = bench::out_path("node_profile.csv");
  if (csv.save(path)) std::printf("\nwrote %s\n", path.c_str());

  // Ship the calibrated overhead constants alongside the profile — the
  // same table the simulator defaults read.
  const auto cost_path = bench::out_path("cost_table.csv");
  if (support::costs::write_cost_table_csv(cost_path)) {
    std::printf("wrote %s (%zu calibrated constants)\n", cost_path.c_str(),
                support::costs::rows().size());
  }

  // Feed the measured profile to the schedulers, as the paper did.
  const auto sim = sim::SimGraph::from_compiled(cg, measured);
  const auto inf = sim::earliest_start_schedule(sim);
  const auto four = sim::list_schedule(sim, 4);
  std::printf("\nschedule analysis of the MEASURED profile (this host):\n");
  std::printf("  sequential (total work)   %8.1f us\n",
              sim::total_work_us(sim));
  std::printf("  critical path             %8.1f us\n",
              sim::critical_path_us(sim));
  std::printf("  earliest start, inf procs %8.1f us (peak concurrency %d)\n",
              inf.makespan_us, inf.peak_concurrency());
  std::printf("  4-core list schedule      %8.1f us (max speedup %.2fx)\n",
              four.makespan_us, sim::total_work_us(sim) / four.makespan_us);
  std::printf("\n(the paper's corresponding numbers on its graph: 1078.5 us\n"
              "sequential, 295 us critical path, 33 peak, 324 us on 4 cores)\n");
  return 0;
}
