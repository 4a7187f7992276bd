// Fault-injection plumbing: FaultPlan parsing, deterministic decisions,
// and CompiledGraph's skip-mask / bypass / fault / cancel machinery on
// small graphs, under every strategy where the outcome is deterministic
// (the randomized executor matrix lives in the `faults` suite).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/graph.hpp"

namespace djstar {
namespace {

using core::chaos::FaultKind;
using core::chaos::FaultPlan;

// ---- FaultPlan::parse ------------------------------------------------------

TEST(FaultPlan, ParsesFullSpec) {
  const auto plan = FaultPlan::parse(
      "seed=42,throw=5,latency=20,latency_us=100..600,nan=3,stall=1,"
      "stall_us=4000");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_EQ(plan->throw_permille, 5u);
  EXPECT_EQ(plan->latency_permille, 20u);
  EXPECT_EQ(plan->nan_permille, 3u);
  EXPECT_EQ(plan->stall_permille, 1u);
  EXPECT_DOUBLE_EQ(plan->latency_min_us, 100.0);
  EXPECT_DOUBLE_EQ(plan->latency_max_us, 600.0);
  EXPECT_DOUBLE_EQ(plan->stall_us, 4000.0);
  EXPECT_TRUE(plan->any());
}

TEST(FaultPlan, EmptySpecIsDefaultsAndInert) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_FALSE(plan->any());
  EXPECT_EQ(plan->seed, 1u);
}

TEST(FaultPlan, SingleLatencyValueCollapsesRange) {
  const auto plan = FaultPlan::parse("latency=10,latency_us=250");
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->latency_min_us, 250.0);
  EXPECT_DOUBLE_EQ(plan->latency_max_us, 250.0);
}

TEST(FaultPlan, RatesClampToPermille) {
  const auto plan = FaultPlan::parse("throw=5000");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->throw_permille, 1000u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::parse("bogus=1").has_value());
  EXPECT_FALSE(FaultPlan::parse("throw").has_value());
  EXPECT_FALSE(FaultPlan::parse("throw=abc").has_value());
  EXPECT_FALSE(FaultPlan::parse("latency_us=600..100").has_value());
  EXPECT_FALSE(FaultPlan::parse("latency_us=-5").has_value());
  EXPECT_FALSE(FaultPlan::parse("seed=42,oops=3").has_value());
}

// ---- decide() determinism --------------------------------------------------

TEST(FaultDecide, PureFunctionOfSeedCycleNode) {
  FaultPlan plan;
  plan.seed = 7;
  plan.throw_permille = 30;
  plan.latency_permille = 100;
  plan.nan_permille = 20;
  plan.stall_permille = 10;
  for (std::uint64_t cycle = 0; cycle < 50; ++cycle) {
    for (core::NodeId node = 0; node < 67; ++node) {
      const auto a = core::chaos::decide(plan, cycle, node);
      const auto b = core::chaos::decide(plan, cycle, node);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_DOUBLE_EQ(a.duration_us, b.duration_us);
    }
  }
}

TEST(FaultDecide, SeedChangesSchedule) {
  FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.throw_permille = b.throw_permille = 100;
  int differing = 0;
  for (std::uint64_t cycle = 0; cycle < 100; ++cycle) {
    for (core::NodeId node = 0; node < 10; ++node) {
      if (core::chaos::decide(a, cycle, node).kind !=
          core::chaos::decide(b, cycle, node).kind) {
        ++differing;
      }
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultDecide, RateExtremes) {
  FaultPlan always;
  always.throw_permille = 1000;
  FaultPlan never;  // all rates zero
  for (std::uint64_t cycle = 0; cycle < 20; ++cycle) {
    for (core::NodeId node = 0; node < 20; ++node) {
      EXPECT_EQ(core::chaos::decide(always, cycle, node).kind,
                FaultKind::kThrow);
      EXPECT_EQ(core::chaos::decide(never, cycle, node).kind,
                FaultKind::kNone);
    }
  }
}

TEST(FaultDecide, LatencyDurationWithinConfiguredRange) {
  FaultPlan plan;
  plan.latency_permille = 1000;
  plan.latency_min_us = 10.0;
  plan.latency_max_us = 20.0;
  for (std::uint64_t cycle = 0; cycle < 200; ++cycle) {
    const auto act = core::chaos::decide(plan, cycle, 0);
    ASSERT_EQ(act.kind, FaultKind::kLatencySpike);
    EXPECT_GE(act.duration_us, 10.0);
    EXPECT_LE(act.duration_us, 20.0);
  }
}

// ---- CompiledGraph fault machinery ----------------------------------------

/// Three-node chain a -> b -> c with per-node run counters.
struct Chain {
  core::TaskGraph g;
  std::vector<int> runs = std::vector<int>(3, 0);

  Chain() {
    for (int i = 0; i < 3; ++i) {
      g.add_node("n" + std::to_string(i), [this, i] { ++runs[i]; }, "s");
    }
    g.add_edge(0, 1);
    g.add_edge(1, 2);
  }
};

TEST(CompiledGraphFaults, MaskSkipsNodeAndCountsIt) {
  for (const core::Strategy s : core::kAllStrategies) {
    SCOPED_TRACE(core::to_string(s));
    Chain chain;
    core::CompiledGraph cg(chain.g);
    cg.set_node_masked(1, true);
    auto exec = core::make_executor(s, cg);
    exec->run_cycle();
    EXPECT_EQ(chain.runs[0], 1);
    EXPECT_EQ(chain.runs[1], 0);  // masked, no bypass
    EXPECT_EQ(chain.runs[2], 1);  // successors still run
    EXPECT_EQ(cg.skipped_this_cycle(), 1u);
    EXPECT_EQ(cg.bypassed_this_cycle(), 0u);
    EXPECT_FALSE(cg.cycle_failed());

    cg.set_node_masked(1, false);
    exec->run_cycle();
    EXPECT_EQ(chain.runs[1], 1);
    EXPECT_EQ(cg.skipped_this_cycle(), 0u);
  }
}

TEST(CompiledGraphFaults, MaskedNodeRunsBypassForm) {
  Chain chain;
  core::CompiledGraph cg(chain.g);
  int bypass_runs = 0;
  cg.set_bypass(1, [&bypass_runs] { ++bypass_runs; });
  cg.set_node_masked(1, true);
  auto exec = core::make_executor(core::Strategy::kSequential, cg);
  exec->run_cycle();
  EXPECT_EQ(chain.runs[1], 0);
  EXPECT_EQ(bypass_runs, 1);
  EXPECT_EQ(cg.bypassed_this_cycle(), 1u);
}

TEST(CompiledGraphFaults, ThrowingNodeFailsCycleAndDrainsRemainder) {
  core::TaskGraph g;
  std::vector<int> runs(3, 0);
  g.add_node("a", [&] { ++runs[0]; throw std::runtime_error("boom"); }, "s");
  g.add_node("b", [&] { ++runs[1]; }, "s");
  g.add_node("c", [&] { ++runs[2]; }, "s");
  g.add_edge(0, 1);
  g.add_edge(1, 2);

  core::CompiledGraph cg(g);
  auto exec = core::make_executor(core::Strategy::kSequential, cg);
  exec->run_cycle();
  EXPECT_TRUE(cg.cycle_failed());
  EXPECT_EQ(cg.fault_node(), 0);
  EXPECT_STREQ(cg.fault_message(), "boom");
  EXPECT_EQ(runs[0], 1);
  EXPECT_EQ(runs[1], 0);  // drained
  EXPECT_EQ(runs[2], 0);

  // The executor stays reusable; the next cycle starts clean. ("a"
  // throws every time here, so the cycle fails again, but the
  // remainder keeps draining instead of deadlocking.)
  exec->run_cycle();
  EXPECT_TRUE(cg.cycle_failed());
  EXPECT_EQ(runs[0], 2);
  EXPECT_EQ(runs[1], 0);
}

TEST(CompiledGraphFaults, RequestCancelDrainsWholeCycle) {
  Chain chain;
  core::CompiledGraph cg(chain.g);
  auto exec = core::make_executor(core::Strategy::kSequential, cg);
  exec->run_cycle();
  ASSERT_EQ(chain.runs[0], 1);

  // Cancelling while idle poisons the *next* cycle only up to its
  // begin_cycle() reset, so: cancel, run, observe a clean run (the
  // flag was cleared) — then cancel *through the first node* instead.
  for (const core::Strategy s : core::kAllStrategies) {
    SCOPED_TRACE(core::to_string(s));
    core::TaskGraph g2;
    int after = 0;
    bool do_cancel = true;
    core::CompiledGraph* cgp = nullptr;
    g2.add_node("first", [&] { if (do_cancel) cgp->request_cancel(); }, "s");
    g2.add_node("second", [&] { ++after; }, "s");
    g2.add_edge(0, 1);
    core::CompiledGraph cg2(g2);
    cgp = &cg2;
    auto exec2 = core::make_executor(s, cg2);
    exec2->run_cycle();
    EXPECT_TRUE(cg2.cycle_failed());
    EXPECT_TRUE(cg2.cancel_requested());
    EXPECT_EQ(cg2.fault_node(), -1);  // cancel, not a node fault
    EXPECT_EQ(cg2.skipped_this_cycle(), 1u);
    EXPECT_EQ(after, 0);

    do_cancel = false;
    exec2->run_cycle();  // flag clears at the next cycle start
    EXPECT_FALSE(cg2.cycle_failed());
    EXPECT_EQ(after, 1);
  }
}

TEST(CompiledGraphFaults, ArmedThrowPlanInjectsDeterministically) {
  FaultPlan plan;
  plan.seed = 11;
  plan.throw_permille = 200;  // dense enough to hit within a few cycles
  plan.latency_permille = 200;  // spikes never fail a cycle, still count
  plan.latency_min_us = 1.0;
  plan.latency_max_us = 5.0;

  // (failed cycles, faults injected) over 50 cycles.
  auto run = [&plan](core::Strategy s) {
    Chain chain;
    core::CompiledGraph cg(chain.g);
    cg.arm_faults(plan);
    auto exec = core::make_executor(s, cg);
    std::vector<int> failed_cycles;
    for (int c = 0; c < 50; ++c) {
      exec->run_cycle();
      if (cg.cycle_failed()) failed_cycles.push_back(c);
    }
    return std::make_pair(failed_cycles, cg.faults_injected());
  };

  const auto first = run(core::Strategy::kSequential);
  EXPECT_FALSE(first.first.empty());
  EXPECT_GT(first.second, first.first.size());  // spikes counted too
  // Decisions are a pure function of (seed, cycle, node), and on a chain
  // a failure drains the same nodes whoever runs them: an exact replay
  // from the seed under every strategy, sequential included.
  for (const core::Strategy s : core::kAllStrategies) {
    EXPECT_EQ(run(s), first) << core::to_string(s);
  }
}

TEST(CompiledGraphFaults, TargetsRestrictEligibility) {
  FaultPlan plan;
  plan.seed = 3;
  plan.throw_permille = 1000;  // would fail node 0 every cycle...
  plan.targets = {2};          // ...but only node 2 is eligible

  Chain chain;
  core::CompiledGraph cg(chain.g);
  cg.arm_faults(plan);
  auto exec = core::make_executor(core::Strategy::kSequential, cg);
  exec->run_cycle();
  EXPECT_TRUE(cg.cycle_failed());
  EXPECT_EQ(cg.fault_node(), 2);
  EXPECT_EQ(chain.runs[0], 1);  // ineligible nodes ran normally
  EXPECT_EQ(chain.runs[1], 1);

  cg.disarm_faults();
  exec->run_cycle();
  EXPECT_FALSE(cg.cycle_failed());
}

TEST(CompiledGraphFaults, NanFaultCallsPoisonHook) {
  FaultPlan plan;
  plan.seed = 5;
  plan.nan_permille = 1000;

  Chain chain;
  core::CompiledGraph cg(chain.g);
  int poisons = 0;
  cg.set_poison_hook([&poisons](core::NodeId) { ++poisons; });
  cg.arm_faults(plan);
  auto exec = core::make_executor(core::Strategy::kSequential, cg);
  exec->run_cycle();
  EXPECT_EQ(poisons, 3);             // every node fired
  EXPECT_FALSE(cg.cycle_failed());   // NaN faults don't abort the cycle
  EXPECT_EQ(chain.runs[0], 1);       // work still ran
}

}  // namespace
}  // namespace djstar
