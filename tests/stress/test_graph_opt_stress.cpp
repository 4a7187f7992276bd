// Graph-opt under torture: schedule fuzzing across fused units, and
// stats/trace consistency with kFused envelope spans present. Runs under
// the stress label (TSan in CI) — the properties themselves are the same
// executor invariants the seed harness checks, now over the coarser
// scheduling granule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/random_dag.hpp"
#include "djstar/core/chaos.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/graph_opt.hpp"
#include "djstar/support/trace.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace go = djstar::core::graph_opt;
using djstar::test::check_cycle_invariants;
using djstar::test::check_stats_trace_consistency;
using djstar::test::RandomDag;
using djstar::test::Watchdog;
using djstar::test::scaled;
using djstar::test::scaled_timeout;

namespace {

struct FusedSetup {
  go::CostModel costs;
  go::Plan plan;
  dc::CompiledGraph cg;
  FusedSetup(const dc::TaskGraph& g, go::FusionOptions opt = {},
             double cost_us = 0.5)
      : costs(g.node_count(), cost_us),
        plan(go::plan_fusion(g, costs, opt)),
        cg(g, plan) {}
};

/// Options that fuse aggressively regardless of the random section
/// labels — used where a test REQUIRES fused units to exist.
go::FusionOptions cross_section_options() {
  go::FusionOptions opt;
  opt.fuse_across_sections = true;
  return opt;
}

}  // namespace

TEST(GraphOptStress, FuzzedModesStrategiesAndSeeds) {
  Watchdog dog(scaled_timeout(240), "graph-opt fuzz");
  const int dags = scaled(10);
  for (int i = 0; i < dags; ++i) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i) * 77;
    RandomDag dag(24 + (i % 3) * 12, 0.04 + 0.03 * (i % 4), seed);
    FusedSetup f(dag.g);
    dc::chaos::ScopedChaos chaos(seed, 300);
    for (dc::Strategy s : dc::kAllStrategies) {
      dc::ExecOptions opts;
      opts.threads = 2 + (i % 3);
      const auto ex = dc::make_executor(s, f.cg, opts);
      const std::string ctx = "fuzz seed " + std::to_string(seed) + " " +
                              std::string(dc::to_string(s)) + "+fuse";
      for (int c = 0; c < scaled(8); ++c) {
        dag.reset();
        ex->run_cycle();
        check_cycle_invariants(dag, ctx);
      }
    }
  }
}

TEST(GraphOptStress, StatsAndTraceStayConsistentWithFusedSpans) {
  // Fused executors emit one kRun span per *member* plus a kFused
  // envelope per multi-node unit; the seed harness's stats/trace
  // cross-check must keep holding (it counts kRun only).
  RandomDag dag(30, 0.07, 777);
  FusedSetup f(dag.g, cross_section_options());
  ASSERT_TRUE(f.cg.fused());
  const std::size_t n = dag.g.node_count();
  const int cycles = scaled(12);
  for (dc::Strategy s : dc::kAllStrategies) {
    djstar::support::TraceRecorder trace;
    trace.arm(4, 16384);
    dc::ExecOptions opts;
    opts.threads = 4;
    opts.trace = &trace;
    const auto ex = dc::make_executor(s, f.cg, opts);
    const auto before = ex->stats().snapshot();
    for (int c = 0; c < cycles; ++c) {
      dag.reset();
      ex->run_cycle();
      check_cycle_invariants(dag, "trace " + std::string(dc::to_string(s)));
    }
    const auto after = ex->stats().snapshot();
    check_stats_trace_consistency(before, after, trace, n,
                                  static_cast<std::size_t>(cycles),
                                  "fused trace " +
                                      std::string(dc::to_string(s)));
    ASSERT_FALSE(trace.truncated());
  }
}
