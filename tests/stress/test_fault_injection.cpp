// Fault-injection stress suite (`faults` label): every scheduling
// strategy is replayed over randomized DAGs with node faults (throws,
// latency spikes, stuck workers) layered on top of schedule fuzzing,
// and the supervised engine is driven through >= 1k faulty cycles per
// strategy. The contract under test: no hang, no crash, a valid output
// packet every cycle, and executors that stay reusable after a failed
// cycle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "djstar/core/chaos.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/engine/engine.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace de = djstar::engine;
namespace dt = djstar::test;

namespace {

struct SweepCase {
  dc::Strategy strategy;
};

std::string sweep_name(const testing::TestParamInfo<SweepCase>& info) {
  return std::string(dc::to_string(info.param.strategy));
}

class FaultSweep : public testing::TestWithParam<SweepCase> {};

bool all_finite(const djstar::audio::AudioBuffer& buf) {
  for (float s : buf.raw()) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

/// On a failed (faulted or cancelled) cycle exactly-once degrades to
/// at-most-once: drained nodes never run, but nothing may run twice.
void check_failed_cycle_invariants(const dt::InstrumentedDag& dag,
                                   const std::string& context) {
  for (std::size_t i = 0; i < dag.done.size(); ++i) {
    ASSERT_LE(dag.done[i].load(), 1)
        << context << ": node " << i << " executed twice in a failed cycle";
  }
}

}  // namespace

TEST_P(FaultSweep, RandomDagsSurviveInjectedFaultsUnderChaos) {
  const dc::Strategy strategy = GetParam().strategy;
  const bool sequential = strategy == dc::Strategy::kSequential;

  const int kGraphs = dt::scaled(8);
  const int kCycles = dt::scaled(120);
  const double kDensities[] = {0.05, 0.15, 0.35, 0.6};
  const unsigned kThreads[] = {2, 3, 4, 8};

  dt::Watchdog watchdog(dt::scaled_timeout(120),
                        std::string("fault sweep ") +
                            std::string(dc::to_string(strategy)));
  dc::chaos::ScopedChaos chaos(0xFA017 + static_cast<int>(strategy), 150);

  std::uint64_t failed_cycles = 0;
  for (int g = 0; g < kGraphs; ++g) {
    const std::size_t n = 24 + (static_cast<std::size_t>(g) * 11) % 40;
    dt::RandomDag dag(n, kDensities[g % 4], 4000 + g * 17);
    dc::CompiledGraph cg(dag.g);

    dc::chaos::FaultPlan plan;
    plan.seed = 0xBADF00D + static_cast<std::uint64_t>(g);
    plan.throw_permille = 12;
    plan.latency_permille = 25;
    plan.latency_min_us = 20.0;
    plan.latency_max_us = 80.0;
    plan.stall_permille = 2;
    plan.stall_us = 500.0;
    cg.arm_faults(plan);

    dc::ExecOptions opts;
    opts.threads = sequential ? 1 : kThreads[g % 4];
    auto exec = dc::make_executor(strategy, cg, opts);
    const auto before = exec->stats().snapshot();

    for (int cycle = 0; cycle < kCycles; ++cycle) {
      dag.reset();
      exec->run_cycle();
      const std::string ctx = std::string(dc::to_string(strategy)) +
                              " graph " + std::to_string(g) + " cycle " +
                              std::to_string(cycle);
      if (cg.cycle_failed()) {
        ++failed_cycles;
        check_failed_cycle_invariants(dag, ctx);
      } else {
        check_cycle_invariants(dag, ctx);
      }
    }

    // Skipped (drained) nodes still count as executor work: the
    // strategies' own accounting must not depend on cycle outcome.
    const auto after = exec->stats().snapshot();
    ASSERT_EQ(after.nodes_executed - before.nodes_executed,
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(kCycles))
        << dc::to_string(strategy) << " graph " << g
        << ": faults disturbed node accounting";
    EXPECT_GT(cg.faults_injected(), 0u);
  }

  // The plan rates are chosen so both branches get exercised.
  EXPECT_GT(failed_cycles, 0u) << "no cycle ever faulted — rates too low";
}

TEST_P(FaultSweep, AlwaysThrowingNodeNeverDeadlocksAndExecutorStaysReusable) {
  const dc::Strategy strategy = GetParam().strategy;
  const bool sequential = strategy == dc::Strategy::kSequential;
  constexpr dc::NodeId kVictim = 5;  // mid-chain: half the graph drains

  dt::Watchdog watchdog(dt::scaled_timeout(120),
                        std::string("throwing node ") +
                            std::string(dc::to_string(strategy)));
  dc::chaos::ScopedChaos chaos(0xDEAD + static_cast<int>(strategy), 150);

  for (unsigned threads : {2u, 4u, 8u}) {
    dt::ChainFanDag dag(10, 12);
    dc::CompiledGraph cg(dag.g);

    dc::chaos::FaultPlan plan;
    plan.throw_permille = 1000;
    plan.targets = {kVictim};
    cg.arm_faults(plan);

    dc::ExecOptions opts;
    opts.threads = sequential ? 1 : threads;
    auto exec = dc::make_executor(strategy, cg, opts);

    const int kCycles = dt::scaled(150);
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      dag.reset();
      exec->run_cycle();
      ASSERT_TRUE(cg.cycle_failed());
      ASSERT_EQ(cg.fault_node(), static_cast<std::int32_t>(kVictim));
      EXPECT_NE(std::strstr(cg.fault_message(), "injected fault"), nullptr);
      // Everything upstream of the victim ran exactly once; the victim
      // and everything at or behind it drained.
      for (dc::NodeId i = 0; i < kVictim; ++i) {
        ASSERT_EQ(dag.done[i].load(), 1) << "upstream node " << i;
      }
      for (std::size_t i = kVictim; i < dag.done.size(); ++i) {
        ASSERT_EQ(dag.done[i].load(), 0) << "drained node " << i;
      }
    }

    // Same executor, faults disarmed: the next cycle is clean — a
    // failed cycle must not leak state into the synchronization
    // protocol.
    cg.disarm_faults();
    dag.reset();
    exec->run_cycle();
    ASSERT_FALSE(cg.cycle_failed());
    check_cycle_invariants(dag, std::string(dc::to_string(strategy)) +
                                    " recovery threads " +
                                    std::to_string(threads));
    if (sequential) break;  // thread count is irrelevant
  }
}

TEST_P(FaultSweep, WatchdogCancelsStuckCycleAndLadderDegrades) {
  de::EngineConfig cfg;
  cfg.strategy = GetParam().strategy;
  cfg.threads = 2;
  de::AudioEngine engine(cfg);

  de::SupervisorConfig sc;
  sc.cancel_budget_us = 2000.0;  // well under the 30 ms stall below
  sc.fault_trip = 1;
  sc.recover_cycles = 1u << 30;
  sc.use_watchdog = true;
  engine.enable_supervision(sc);

  dc::chaos::FaultPlan plan;
  plan.stall_permille = 1000;
  plan.stall_us = 30000.0;
  plan.targets = {0};  // one permanently stuck source node
  engine.arm_faults(plan);

  dt::Watchdog watchdog(dt::scaled_timeout(120),
                        std::string("watchdog cancel ") +
                            std::string(dc::to_string(cfg.strategy)));
  for (int i = 0; i < 3; ++i) {
    engine.run_cycle();
    ASSERT_TRUE(all_finite(engine.safe_output())) << "cycle " << i;
  }

  const auto& stats = engine.supervisor().stats();
  EXPECT_GE(stats.watchdog_cancels, 1u);
  EXPECT_GE(stats.cancels, 1u);
  EXPECT_GE(engine.supervisor().level(),
            de::DegradationLevel::kSequentialFallback)
      << "three cancelled cycles must ride the ladder down three rungs";

  // Clear the stall: the engine keeps producing valid audio.
  engine.disarm_faults();
  engine.run_cycle();
  EXPECT_TRUE(all_finite(engine.safe_output()));
}

TEST_P(FaultSweep, SupervisedEngineSurvivesThousandFaultyCycles) {
  de::EngineConfig cfg;
  cfg.strategy = GetParam().strategy;
  cfg.threads = 4;
  de::AudioEngine engine(cfg);

  de::SupervisorConfig sc;
  sc.fault_trip = 1;
  sc.overrun_trip = 3;
  sc.recover_cycles = 32;
  sc.use_watchdog = true;
  engine.enable_supervision(sc);

  dc::chaos::FaultPlan plan;
  plan.seed = 0x5AFE + static_cast<std::uint64_t>(cfg.strategy);
  plan.latency_permille = 20;
  plan.latency_min_us = 100.0;
  plan.latency_max_us = 400.0;
  plan.throw_permille = 3;
  plan.nan_permille = 2;
  plan.stall_permille = 1;
  plan.stall_us = 3000.0;
  engine.arm_faults(plan);

  const int kCycles = dt::scaled(1000);
  dt::Watchdog watchdog(dt::scaled_timeout(300),
                        std::string("1k faulty cycles ") +
                            std::string(dc::to_string(cfg.strategy)));

  for (int i = 0; i < kCycles; ++i) {
    engine.run_cycle();
    // The headline acceptance check: a valid packet EVERY cycle, no
    // matter what was injected into this one.
    ASSERT_TRUE(all_finite(engine.safe_output())) << "cycle " << i;
  }

  const auto& stats = engine.supervisor().stats();
  EXPECT_EQ(stats.cycles, static_cast<std::uint64_t>(kCycles));
  EXPECT_GT(engine.compiled().faults_injected(), 0u);
  EXPECT_EQ(engine.monitor().cycles(), static_cast<std::size_t>(kCycles));
  std::size_t level_sum = 0;
  for (unsigned l = 0; l < de::DeadlineMonitor::kMaxLevels; ++l) {
    level_sum += engine.monitor().level_cycles(l);
  }
  EXPECT_EQ(level_sum, static_cast<std::size_t>(kCycles))
      << "every cycle must be attributed to exactly one degradation level";
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FaultSweep,
                         testing::Values(SweepCase{dc::Strategy::kBusyWait},
                                         SweepCase{dc::Strategy::kSleep},
                                         SweepCase{dc::Strategy::kWorkStealing},
                                         SweepCase{dc::Strategy::kSharedQueue},
                                         SweepCase{dc::Strategy::kSequential}),
                         sweep_name);

// Deterministic-transition replay on a *parallel* strategy: the fault
// schedule is a pure function of (seed, cycle, node), so with the
// watchdog off and an unmissable deadline two runs must produce
// bit-identical degradation histories despite nondeterministic thread
// interleaving.
TEST(FaultDeterminism, TransitionLogReproducibleUnderWorkStealing) {
  auto run = [] {
    de::EngineConfig cfg;
    cfg.strategy = dc::Strategy::kWorkStealing;
    cfg.threads = 4;
    cfg.deadline_us = 1e9;  // timing can never influence the ladder
    de::AudioEngine engine(cfg);

    de::SupervisorConfig sc;
    sc.fault_trip = 1;
    sc.recover_cycles = 8;
    sc.use_watchdog = false;
    engine.enable_supervision(sc);

    dc::chaos::FaultPlan plan;
    plan.seed = 77;
    plan.throw_permille = 20;
    plan.nan_permille = 8;
    engine.arm_faults(plan);

    const int kCycles = dt::scaled(400);
    for (int i = 0; i < kCycles; ++i) engine.run_cycle();
    return engine.supervisor().transitions();
  };

  dt::Watchdog watchdog(dt::scaled_timeout(180), "transition determinism");
  const auto first = run();
  const auto second = run();
  ASSERT_FALSE(first.empty()) << "fault rates produced no transitions";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cycle, second[i].cycle) << "transition " << i;
    EXPECT_EQ(first[i].from, second[i].from) << "transition " << i;
    EXPECT_EQ(first[i].to, second[i].to) << "transition " << i;
    EXPECT_EQ(first[i].reason, second[i].reason) << "transition " << i;
  }
}
