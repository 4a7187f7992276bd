// Unit tests for serve::Session: ladder actuation, forced degradation,
// miss accounting, safe mode.
#include <gtest/gtest.h>

#include "djstar/core/team.hpp"
#include "djstar/serve/session.hpp"
#include "djstar/serve/synthetic.hpp"

namespace dc = djstar::core;
namespace de = djstar::engine;
namespace ds = djstar::serve;

namespace {

class SessionTest : public testing::Test {
 protected:
  SessionTest() : team_(2) {}

  std::unique_ptr<ds::Session> make(ds::SyntheticSpec spec,
                                    de::SupervisorConfig scfg = {}) {
    return std::make_unique<ds::Session>(next_id_++,
                                         ds::make_synthetic_session(spec),
                                         team_, dc::ExecOptions{}, ws_, scfg);
  }

  dc::Team team_;
  dc::WorkStealingOptions ws_{};
  ds::SessionId next_id_ = 1;
};

}  // namespace

TEST_F(SessionTest, RunsCleanCyclesAtFullLevel) {
  // Generous deadline: the test is about counters and the ladder staying
  // put, not wall-clock margin — OS preemption under a loaded ctest run
  // must not register as a miss.
  ds::SyntheticSpec spec;
  spec.deadline_us = 50'000.0;
  auto s = make(spec);
  for (int i = 0; i < 20; ++i) {
    const double completion = s->run_cycle(0.0, s->deadline_us());
    EXPECT_GT(completion, 0.0);
  }
  EXPECT_EQ(s->counters().cycles, 20u);
  EXPECT_EQ(s->counters().misses, 0u);
  EXPECT_EQ(s->counters().degraded_cycles, 0u);
  EXPECT_EQ(s->supervisor().level(), de::DegradationLevel::kFull);
  EXPECT_EQ(s->hosted_executor().stats().snapshot().nodes_executed,
            20u * s->node_count());
}

TEST_F(SessionTest, DispatchWaitCountsAgainstTheDeadline) {
  auto s = make({});
  // A cheap cycle dispatched later than its whole deadline is a miss no
  // matter how fast the graph ran.
  const double completion = s->run_cycle(s->deadline_us() * 2.0, s->deadline_us());
  EXPECT_GT(completion, s->deadline_us());
  EXPECT_EQ(s->counters().misses, 1u);
}

TEST_F(SessionTest, MultiRateSessionIsJudgedAgainstItsTickBudget) {
  // A session whose deadline spans two ticks is dispatched in the tick
  // that ends at its deadline, so its budget is one tick. Served half a
  // tick past that budget, the packet is late: the counters, the monitor
  // and the supervisor must all say so, and the ladder must step down.
  constexpr double kTickUs = 2000.0;
  ds::SyntheticSpec spec;
  spec.deadline_us = 2.0 * kTickUs;
  auto s = make(spec);
  s->run_cycle(1.5 * kTickUs, kTickUs);
  EXPECT_EQ(s->counters().misses, 1u);
  EXPECT_EQ(s->monitor().misses(), 1u);
  EXPECT_EQ(s->supervisor().stats().overruns, 1u);
  const unsigned trip = s->supervisor().config().overrun_trip;
  for (unsigned i = 1; i < trip; ++i) s->run_cycle(1.5 * kTickUs, kTickUs);
  EXPECT_EQ(s->counters().misses, trip);
  EXPECT_NE(s->supervisor().level(), de::DegradationLevel::kFull);
}

TEST_F(SessionTest, ForceDegradeWalksToTheFloorThenRefuses) {
  auto s = make({});
  int rungs = 0;
  while (s->supervisor().force_degrade()) ++rungs;
  EXPECT_EQ(rungs, static_cast<int>(de::kDegradationLevelCount) - 1);
  EXPECT_EQ(s->supervisor().level(), de::DegradationLevel::kSafeMode);
  EXPECT_FALSE(s->supervisor().force_degrade());
}

TEST_F(SessionTest, DegradedLevelsMaskSheddableNodesAndCountCycles) {
  ds::SyntheticSpec spec;
  spec.width = 2;
  spec.depth = 2;
  spec.sheddable_fraction = 0.5;  // last node of each chain sheddable
  auto s = make(spec);

  ASSERT_TRUE(s->supervisor().force_degrade());  // kFull -> kBypassFx
  const auto before = s->hosted_executor().stats().snapshot().nodes_executed;
  s->run_cycle(0.0, s->deadline_us());
  // Masked nodes are still visited by the executor (skip is inside
  // execute()), so exactly-once accounting is level-independent.
  EXPECT_EQ(s->hosted_executor().stats().snapshot().nodes_executed - before,
            s->node_count());
  EXPECT_EQ(s->counters().degraded_cycles, 1u);
}

TEST_F(SessionTest, SafeModeSkipsTheGraphEntirely) {
  auto s = make({});
  while (s->supervisor().force_degrade()) {
  }
  const auto before = s->hosted_executor().stats().snapshot().nodes_executed;
  s->run_cycle(0.0, s->deadline_us());
  EXPECT_EQ(s->hosted_executor().stats().snapshot().nodes_executed, before);
  EXPECT_EQ(s->counters().cycles, 1u);
  EXPECT_EQ(s->counters().degraded_cycles, 1u);
}

TEST_F(SessionTest, SequentialFallbackStopsUsingTheSharedPool) {
  auto s = make({});
  ASSERT_TRUE(s->supervisor().force_degrade());  // kBypassFx
  ASSERT_TRUE(s->supervisor().force_degrade());  // kNoStretch
  ASSERT_TRUE(s->supervisor().force_degrade());  // kSequentialFallback
  const auto before = s->hosted_executor().stats().snapshot().nodes_executed;
  s->run_cycle(0.0, s->deadline_us());
  EXPECT_EQ(s->hosted_executor().stats().snapshot().nodes_executed, before);
}

TEST_F(SessionTest, DensityTracksDeclaredEstimate) {
  ds::SyntheticSpec spec;
  ds::SessionSpec raw = ds::make_synthetic_session(spec);
  raw.cost_estimate_us = 290.2;
  const double deadline = raw.deadline_us;
  ds::Session s(99, std::move(raw), team_, dc::ExecOptions{}, ws_, {});
  EXPECT_NEAR(s.density(), 290.2 / deadline, 1e-12);
  s.set_cost_estimate_us(580.4);
  EXPECT_NEAR(s.density(), 580.4 / deadline, 1e-12);
}

TEST_F(SessionTest, DerivesCostEstimateFromDeclaredNodeCostsWhenUnset) {
  ds::SyntheticSpec spec;
  spec.node_cost_us = 50.0;
  spec.jitter = 0.0;
  auto s = make(spec);
  // width*depth interior nodes at 50us plus ~free source/sink: the
  // He-et-al. bound on 2 workers lands between len and vol.
  const double vol = 50.0 * spec.width * spec.depth + 2.0;
  EXPECT_GT(s->cost_estimate_us(), 50.0 * spec.depth);
  EXPECT_LT(s->cost_estimate_us(), vol);
}
