// bench/graph_opt.cpp
// Graph-optimizer evaluation + CI regression gate.
//
// Simulated on the virtual 4-core machine (DESIGN.md §2): the fusion win
// is demonstrated the same way the paper demonstrated schedule quality —
// in virtual time with the calibrated overhead model. Two modes are
// compared:
//   off   dynamic BUSY dispatch over the node graph
//   fuse  dynamic BUSY dispatch over the fused unit graph
//
// `--smoke` runs the CI gate: fuse must never be slower than off beyond
// a noise margin at 4 threads (exit 1 on regression).
#include <cstring>

#include "bench_common.hpp"
#include "djstar/core/graph_opt.hpp"
#include "djstar/sim/sampler.hpp"

namespace {

using namespace djstar;

/// Per-cycle unit durations: sample node durations, then sum per unit.
struct UnitSampler {
  sim::DurationSampler sampler;
  const core::CompiledGraph& cg;
  std::vector<double> node_us;

  UnitSampler(std::span<const double> ref, const core::CompiledGraph& g)
      : sampler(ref), cg(g) {}

  void fill(std::vector<double>& unit_us) {
    sampler.sample(node_us);
    unit_us.assign(cg.unit_count(), 0.0);
    for (core::UnitId u = 0; u < cg.unit_count(); ++u) {
      for (core::NodeId m : cg.unit_members(u)) unit_us[u] += node_us[m];
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::banner(
      "graph-opt — node fusion (DESIGN.md §11)",
      "dispatch overhead, not compute, limits speedup; fusing cheap nodes "
      "removes some of it");

  const std::size_t iters = smoke ? 2000 : bench::sim_iters();
  bench::ReferenceSetup ref;
  const auto durations = ref.graph.reference_durations();

  core::graph_opt::CostModel costs(ref.graph.graph().node_count());
  costs.seed(durations);
  const auto plan = core::graph_opt::plan_fusion(ref.graph.graph(), costs);
  core::CompiledGraph fused(ref.graph.graph(), plan);
  const sim::SimGraph unit_sim =
      sim::SimGraph::from_compiled_units(fused, durations);

  std::printf("graph: %zu nodes -> %zu units (%zu fused)\n\n",
              ref.graph.graph().node_count(), fused.unit_count(),
              plan.fused_unit_count());

  support::CsvWriter csv;
  csv.cells("mode", "threads", "mean_us", "speedup_vs_off");

  const char* mode_names[] = {"off", "fuse"};
  constexpr int kModes = 2;
  double mean_us[kModes][4];  // [mode][threads-1]

  for (unsigned t = 1; t <= 4; ++t) {
    // off: dynamic BUSY over the node graph.
    {
      sim::DurationSampler sampler(ref.sim.duration_us, {});
      sim::SimGraph g = ref.sim;
      support::OnlineStats s;
      for (std::size_t i = 0; i < iters; ++i) {
        sampler.sample(g.duration_us);
        s.add(sim::simulate_busy(g, t).makespan_us);
      }
      mean_us[0][t - 1] = s.mean();
    }
    // fuse: over the unit graph.
    {
      UnitSampler us(durations, fused);
      sim::SimGraph g = unit_sim;
      support::OnlineStats dyn;
      for (std::size_t i = 0; i < iters; ++i) {
        us.fill(g.duration_us);
        dyn.add(sim::simulate_busy(g, t).makespan_us);
      }
      mean_us[1][t - 1] = dyn.mean();
    }
  }

  std::printf("simulated mean cycle time (us), virtual machine:\n\n");
  std::printf("  %-12s %9s %9s %9s %9s\n", "mode", "T=1", "T=2", "T=3", "T=4");
  for (int m = 0; m < kModes; ++m) {
    std::printf("  %-12s", mode_names[m]);
    for (unsigned t = 1; t <= 4; ++t) {
      std::printf(" %9.1f", mean_us[m][t - 1]);
      csv.cells(mode_names[m], t,
                mean_us[m][t - 1], mean_us[0][t - 1] / mean_us[m][t - 1]);
    }
    std::printf("\n");
  }

  std::vector<support::Bar> bars;
  for (int m = 0; m < kModes; ++m) {
    bars.push_back({mode_names[m], mean_us[0][3] / mean_us[m][3]});
  }
  std::printf("\n%s\n",
              support::render_bars(bars, 40, "Speedup vs off at 4 threads", "x")
                  .c_str());

  const auto path = bench::out_path("graph_opt.csv");
  if (csv.save(path)) std::printf("wrote %s\n", path.c_str());

  if (smoke) {
    // CI gate: the optimizer must never lose to off beyond noise.
    constexpr double kNoise = 1.02;
    bool ok = true;
    for (int m = 1; m < kModes; ++m) {
      const double ratio = mean_us[m][3] / mean_us[0][3];
      std::printf("smoke: %s / off at 4 threads = %.3f (gate < %.2f) %s\n",
                  mode_names[m], ratio, kNoise,
                  ratio < kNoise ? "PASS" : "FAIL");
      ok = ok && ratio < kNoise;
    }
    if (!ok) {
      std::printf("\nsmoke gate FAILED: graph-opt regressed below off\n");
      return 1;
    }
    std::printf("\nsmoke gate passed\n");
  }
  return 0;
}
