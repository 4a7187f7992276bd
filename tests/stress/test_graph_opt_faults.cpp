// Fault-injection identity under graph-opt: fusion changes the
// scheduling granule, but faults keep targeting ORIGINAL node ids and
// fault decisions stay a pure function of (seed, cycle, node), so every
// fault-tolerance observable — injected counts, failing node, drain
// behaviour, masking/bypass counts — must be identical with and without
// a fusion plan. Runs under the faults label (TSan + ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random_dag.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/fault.hpp"
#include "djstar/core/graph_opt.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace go = djstar::core::graph_opt;
using djstar::test::check_cycle_invariants;
using djstar::test::RandomDag;
using djstar::test::scaled;

namespace {

/// A node id that ends up inside a multi-member unit of `cg` (asserts
/// the plan actually fused something).
dc::NodeId fused_member(const dc::CompiledGraph& cg) {
  for (dc::UnitId u = 0; u < cg.unit_count(); ++u) {
    if (cg.unit_members(u).size() > 1) return cg.unit_members(u)[1];
  }
  ADD_FAILURE() << "plan fused nothing";
  return 0;
}

}  // namespace

TEST(GraphOptFaults, LatencyFaultCountsIdenticalAcrossModes) {
  // Latency spikes never abort a cycle, so every node executes every
  // cycle and the deterministic per-(cycle, node) decisions must add up
  // to the same injected-fault count in every mode and strategy.
  RandomDag dag(28, 0.08, 51);
  const std::size_t n = dag.g.node_count();
  dc::chaos::FaultPlan fp;
  fp.seed = 99;
  fp.latency_permille = 120;
  fp.latency_min_us = 1.0;
  fp.latency_max_us = 5.0;

  const go::CostModel costs(n, 0.5);
  const int cycles = scaled(10);
  std::vector<std::uint64_t> counts;
  for (const bool fuse : {false, true}) {
    const auto plan =
        fuse ? go::plan_fusion(dag.g, costs, {}) : go::Plan::identity(n);
    for (dc::Strategy s : dc::kAllStrategies) {
      dc::CompiledGraph cg(dag.g, plan);
      cg.arm_faults(fp);
      dc::ExecOptions opts;
      opts.threads = 4;
      const auto ex = dc::make_executor(s, cg, opts);
      for (int c = 0; c < cycles; ++c) {
        dag.reset();
        ex->run_cycle();
        check_cycle_invariants(dag, std::string(dc::to_string(s)) +
                                        (fuse ? "/fuse" : "/off"));
      }
      counts.push_back(cg.faults_injected());
    }
  }
  for (std::size_t i = 1; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i], counts[0])
        << "fault count diverged at combination " << i;
  }
  ASSERT_GT(counts[0], 0u) << "fault plan never fired";
}

TEST(GraphOptFaults, ThrowInsideFusedUnitFailsIdenticalCycles) {
  // One throw-target buried inside a fused unit: whether cycle c fails,
  // and which node is blamed, is decided by (seed, c, node) alone — the
  // answers must match the unfused graph cycle for cycle.
  RandomDag dag(26, 0.09, 73);
  const std::size_t n = dag.g.node_count();
  const go::CostModel costs(n, 0.5);
  const auto plan = go::plan_fusion(dag.g, costs, {});
  dc::CompiledGraph probe(dag.g, plan);
  const dc::NodeId target = fused_member(probe);

  dc::chaos::FaultPlan fp;
  fp.seed = 7;
  fp.throw_permille = 400;  // several failing cycles in a short run
  fp.targets = {target};

  const int cycles = scaled(12);
  // Reference outcome per cycle from the unfused sequential baseline.
  std::vector<char> ref_failed;
  {
    dc::CompiledGraph cg(dag.g);
    cg.arm_faults(fp);
    const auto ex = dc::make_executor(dc::Strategy::kSequential, cg, {});
    for (int c = 0; c < cycles; ++c) {
      dag.reset();
      ex->run_cycle();
      ref_failed.push_back(cg.cycle_failed() ? 1 : 0);
      if (cg.cycle_failed()) {
        EXPECT_EQ(cg.fault_node(), target);
      } else {
        check_cycle_invariants(dag, "faults baseline");
      }
    }
    ASSERT_GT(cg.faults_injected(), 0u);
  }

  for (dc::Strategy s : dc::kAllStrategies) {
    dc::CompiledGraph cg(dag.g, plan);
    cg.arm_faults(fp);
    dc::ExecOptions opts;
    opts.threads = 4;
    const auto ex = dc::make_executor(s, cg, opts);
    for (int c = 0; c < cycles; ++c) {
      dag.reset();
      ex->run_cycle();
      ASSERT_EQ(cg.cycle_failed(), ref_failed[c] != 0)
          << dc::to_string(s) << "+fuse cycle " << c;
      if (ref_failed[c] != 0) {
        ASSERT_EQ(cg.fault_node(), target);
      }
    }
  }
}

TEST(GraphOptFaults, CancellationDrainsFusedUnits) {
  // Mid-cycle cancellation (the watchdog's lever) landing inside a
  // fused unit: the remaining members of the unit — and every unit
  // after it — must drain without running their work, under every
  // strategy. A chain keeps the outcome deterministic: node 0 is the
  // only source, requests the cancel from inside its own fused unit,
  // and everything downstream drains.
  constexpr std::size_t kN = 10;
  dc::TaskGraph g;
  std::array<std::atomic<int>, kN> done{};
  std::atomic<dc::CompiledGraph*> live{nullptr};
  for (std::size_t i = 0; i < kN; ++i) {
    g.add_node("n" + std::to_string(i),
               [&done, &live, i] {
                 done[i].fetch_add(1);
                 if (i == 0) live.load()->request_cancel();
               },
               "master");
    if (i > 0) {
      g.add_edge(static_cast<dc::NodeId>(i - 1), static_cast<dc::NodeId>(i));
    }
  }
  const go::CostModel costs(kN, 0.5);
  const auto plan = go::plan_fusion(g, costs, {});
  ASSERT_GT(plan.fused_unit_count(), 0u);

  for (dc::Strategy s : dc::kAllStrategies) {
    dc::CompiledGraph cg(g, plan);
    live.store(&cg);
    dc::ExecOptions opts;
    opts.threads = 4;
    const auto ex = dc::make_executor(s, cg, opts);

    for (auto& d : done) d.store(0);
    ex->run_cycle();
    EXPECT_TRUE(cg.cycle_failed()) << dc::to_string(s);
    EXPECT_EQ(cg.skipped_this_cycle(), static_cast<std::uint64_t>(kN - 1))
        << dc::to_string(s);
    EXPECT_EQ(done[0].load(), 1);
    for (std::size_t i = 1; i < kN; ++i) {
      EXPECT_EQ(done[i].load(), 0)
          << "cancelled cycle ran node " << i << " under " << dc::to_string(s);
    }

    // The next cycle recovers completely — but node 0 cancels again, so
    // neutralize it first by masking (bypass = no work, no cancel).
    cg.set_node_masked(0, true);
    for (auto& d : done) d.store(0);
    ex->run_cycle();
    EXPECT_FALSE(cg.cycle_failed()) << dc::to_string(s);
    for (std::size_t i = 1; i < kN; ++i) {
      EXPECT_EQ(done[i].load(), 1)
          << "post-cancel recovery missed node " << i << " under "
          << dc::to_string(s);
    }
  }
}

TEST(GraphOptFaults, MaskingAppliesPerNodeInsideFusedUnits) {
  // Degradation masks address nodes, not units: masking one member of a
  // fused unit must bypass exactly that node while its unit siblings
  // keep running.
  RandomDag dag(24, 0.08, 17);
  const std::size_t n = dag.g.node_count();
  const go::CostModel costs(n, 0.5);
  go::FusionOptions fopt;
  fopt.fuse_across_sections = true;  // random sections; force fused units
  dc::CompiledGraph cg(dag.g, go::plan_fusion(dag.g, costs, fopt));
  const dc::NodeId masked = fused_member(cg);
  cg.set_node_masked(masked, true);

  dc::ExecOptions opts;
  opts.threads = 4;
  const auto ex = dc::make_executor(dc::Strategy::kBusyWait, cg, opts);
  dag.reset();
  ex->run_cycle();
  EXPECT_EQ(cg.skipped_this_cycle(), 1u);
  EXPECT_EQ(dag.done[masked].load(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<dc::NodeId>(i) == masked) continue;
    EXPECT_EQ(dag.done[i].load(), 1) << "node " << i;
  }

  cg.set_node_masked(masked, false);
  dag.reset();
  ex->run_cycle();
  check_cycle_invariants(dag, "unmasked again");
}
