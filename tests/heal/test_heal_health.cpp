// Unit tests for the self-healing building blocks (DESIGN.md §12):
// HealthBoard slots and transitions, strict DJSTAR_HEAL parsing, the
// worker-fault kinds in FaultPlan, and the degraded (heal-off) stand-ins
// that keep worker faults from hanging an unhealed executor.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include "common/env.hpp"
#include "common/random_dag.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/health.hpp"

namespace dc = djstar::core;
namespace dt = djstar::test;

TEST(HealthBoard, BeatsAccumulatePerSlot) {
  dc::HealthBoard hb;
  hb.configure(3);
  EXPECT_EQ(hb.width(), 3u);
  hb.beat(0);
  hb.beat(2);
  hb.beat(2);
  EXPECT_EQ(hb.beats(0), 1u);
  EXPECT_EQ(hb.beats(1), 0u);
  EXPECT_EQ(hb.beats(2), 2u);
}

TEST(HealthBoard, TransitionCasArbitratesDoneCredit) {
  dc::HealthBoard hb;
  hb.configure(2);
  EXPECT_EQ(hb.state(1), dc::WorkerState::kActive);

  // Worker wins the finish race: the medic's quarantine CAS must fail.
  EXPECT_TRUE(hb.try_transition(1, dc::WorkerState::kActive,
                                dc::WorkerState::kFinished));
  EXPECT_FALSE(hb.try_transition(1, dc::WorkerState::kActive,
                                 dc::WorkerState::kQuarantined));
  EXPECT_EQ(hb.state(1), dc::WorkerState::kFinished);

  // Medic wins on the other slot: the worker's finish CAS must fail.
  EXPECT_TRUE(hb.try_transition(0, dc::WorkerState::kActive,
                                dc::WorkerState::kQuarantined));
  EXPECT_FALSE(hb.try_transition(0, dc::WorkerState::kActive,
                                 dc::WorkerState::kFinished));
}

TEST(HealthBoard, DeadCountTracksQuarantines) {
  dc::HealthBoard hb;
  hb.configure(4);
  EXPECT_EQ(hb.dead(), 0u);
  hb.add_dead(1);
  EXPECT_EQ(hb.dead(), 1u);
  hb.add_dead(-1);
  EXPECT_EQ(hb.dead(), 0u);
}

TEST(HealthBoard, ExitedFlagRoundTrips) {
  dc::HealthBoard hb;
  hb.configure(1);
  EXPECT_FALSE(hb.exited(0));
  hb.mark_exited(0);
  EXPECT_TRUE(hb.exited(0));
  hb.clear_exited(0);
  EXPECT_FALSE(hb.exited(0));
}

TEST(HealthBoard, WorkerFaultOnUnboundThreadIsNoOp) {
  // The calling thread is not bound to any board: worker faults must be
  // consumed silently (this is also the worker-0 exemption path).
  dc::HealthBoard::on_worker_fault(dc::chaos::FaultKind::kWorkerAbort);
  EXPECT_FALSE(dc::HealthBoard::abandoned());
}

TEST(HealMode, ParseAcceptsExactNamesOnly) {
  EXPECT_EQ(dc::parse_heal_mode("off"), dc::HealMode::kOff);
  EXPECT_EQ(dc::parse_heal_mode("quarantine"), dc::HealMode::kQuarantine);
  EXPECT_EQ(dc::parse_heal_mode("respawn"), dc::HealMode::kRespawn);
  EXPECT_THROW(dc::parse_heal_mode(""), std::invalid_argument);
  EXPECT_THROW(dc::parse_heal_mode("on"), std::invalid_argument);
  EXPECT_THROW(dc::parse_heal_mode("Respawn"), std::invalid_argument);
  EXPECT_THROW(dc::parse_heal_mode("respawn "), std::invalid_argument);
}

TEST(HealMode, EnvOverridesFallbackAndRejectsGarbage) {
  const auto env_heal_mode = [](dc::HealMode configured) {
    djstar::engine::EngineConfig cfg;
    cfg.heal.mode = configured;
    return djstar_test::with_env_overrides(cfg).heal.mode;
  };
  djstar_test::ScopedEnv guard("DJSTAR_HEAL", nullptr);
  EXPECT_EQ(env_heal_mode(dc::HealMode::kQuarantine),
            dc::HealMode::kQuarantine);
  guard.set("respawn");
  EXPECT_EQ(env_heal_mode(dc::HealMode::kOff), dc::HealMode::kRespawn);
  guard.set("");
  EXPECT_THROW(env_heal_mode(dc::HealMode::kOff), std::invalid_argument);
  guard.set("maybe");
  EXPECT_THROW(env_heal_mode(dc::HealMode::kOff), std::invalid_argument);
}

TEST(FaultPlan, ParsesWorkerFaultKeys) {
  const auto plan =
      dc::chaos::FaultPlan::parse("seed=7,stall_forever=3,abort=5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->stall_forever_permille, 3u);
  EXPECT_EQ(plan->abort_permille, 5u);
  EXPECT_TRUE(plan->any_worker());
  EXPECT_TRUE(plan->any());

  const auto node_only = dc::chaos::FaultPlan::parse("seed=7,throw=3");
  ASSERT_TRUE(node_only.has_value());
  EXPECT_FALSE(node_only->any_worker());
}

// Heal-off safety net: a plan with worker faults armed on an unhealed
// executor must not hang or crash — kStallForever degrades to a bounded
// stall, kWorkerAbort to a no-op — and every node still runs.
TEST(WorkerFaultsUnhealed, DegradedStandInsKeepCyclesComplete) {
  for (const dc::Strategy s :
       {dc::Strategy::kSequential, dc::Strategy::kBusyWait,
        dc::Strategy::kWorkStealing}) {
    dt::RandomDag dag(24, 0.2, 0xBEEF);
    dc::CompiledGraph cg(dag.g);

    dc::chaos::FaultPlan plan;
    plan.seed = 0x5EED;
    plan.stall_forever_permille = 40;
    plan.abort_permille = 40;
    plan.stall_us = 30.0;
    cg.arm_faults(plan);

    dc::ExecOptions opts;
    opts.threads = 3;  // heal.mode stays kOff
    const auto exec = dc::make_executor(s, cg, opts);
    for (int c = 0; c < 20; ++c) {
      dag.reset();
      exec->run_cycle();
      for (std::size_t i = 0; i < dag.done.size(); ++i) {
        ASSERT_EQ(dag.done[i].load(), 1)
            << dc::to_string(s) << ": node " << i << " cycle " << c;
      }
    }
  }
}
