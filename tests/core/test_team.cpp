// Unit tests for the persistent worker team.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/graph.hpp"
#include "djstar/core/team.hpp"
#include "djstar/core/work_stealing.hpp"

namespace dc = djstar::core;

namespace {

struct TeamCase {
  dc::StartMode mode;
  unsigned threads;
};

class TeamTest : public testing::TestWithParam<TeamCase> {};

}  // namespace

TEST_P(TeamTest, EveryWorkerRunsOncePerCycle) {
  const auto p = GetParam();
  std::vector<std::atomic<int>> counts(p.threads);
  for (auto& c : counts) c.store(0);
  dc::Team team(p.threads, p.mode, [&](unsigned w) {
    counts[w].fetch_add(1);
  });
  for (int cycle = 1; cycle <= 50; ++cycle) {
    team.run_cycle();
    for (unsigned w = 0; w < p.threads; ++w) {
      ASSERT_EQ(counts[w].load(), cycle) << "worker " << w;
    }
  }
}

TEST_P(TeamTest, WorkerIdsAreDistinct) {
  const auto p = GetParam();
  std::mutex m;
  std::set<unsigned> ids;
  dc::Team team(p.threads, p.mode, [&](unsigned w) {
    const std::lock_guard<std::mutex> lk(m);
    ids.insert(w);
  });
  team.run_cycle();
  EXPECT_EQ(ids.size(), p.threads);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), p.threads - 1);
}

TEST_P(TeamTest, RunCycleIsABarrier) {
  const auto p = GetParam();
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  dc::Team team(p.threads, p.mode, [&](unsigned) {
    inside.fetch_add(1);
  });
  for (int cycle = 0; cycle < 20; ++cycle) {
    team.run_cycle();
    // After run_cycle returns, all workers of this cycle are done.
    if (inside.load() != (cycle + 1) * static_cast<int>(p.threads)) {
      overlap.store(true);
    }
  }
  EXPECT_FALSE(overlap.load());
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, TeamTest,
    testing::Values(TeamCase{dc::StartMode::kSpin, 1},
                    TeamCase{dc::StartMode::kSpin, 2},
                    TeamCase{dc::StartMode::kSpin, 4},
                    TeamCase{dc::StartMode::kCondvar, 1},
                    TeamCase{dc::StartMode::kCondvar, 2},
                    TeamCase{dc::StartMode::kCondvar, 4}),
    [](const testing::TestParamInfo<TeamCase>& info) {
      return std::string(info.param.mode == dc::StartMode::kSpin ? "spin"
                                                                 : "condvar") +
             "_t" + std::to_string(info.param.threads);
    });

TEST(Team, DestructorJoinsCleanly) {
  for (int i = 0; i < 10; ++i) {
    dc::Team team(3, dc::StartMode::kCondvar, [](unsigned) {});
    team.run_cycle();
    // Team destroyed immediately; must not hang or crash.
  }
  SUCCEED();
}

TEST(Team, SingleThreadRunsInline) {
  std::atomic<int> runs{0};
  dc::Team team(1, dc::StartMode::kSpin, [&](unsigned w) {
    EXPECT_EQ(w, 0u);
    runs.fetch_add(1);
  });
  team.run_cycle();
  EXPECT_EQ(runs.load(), 1);
}

// ---- External submission mode (serve: one pool, many executors) ----

TEST(TeamSubmission, BodylessTeamRunsSubmittedBodies) {
  dc::Team team(3, dc::StartMode::kCondvar);
  std::vector<std::atomic<int>> a(3), b(3);
  for (auto& c : a) c.store(0);
  for (auto& c : b) c.store(0);

  const dc::Team::WorkerFn fa = [&](unsigned w) { a[w].fetch_add(1); };
  const dc::Team::WorkerFn fb = [&](unsigned w) { b[w].fetch_add(1); };
  team.run_cycle(fa);
  team.run_cycle(fb);
  team.run_cycle(fa);

  for (unsigned w = 0; w < 3; ++w) {
    EXPECT_EQ(a[w].load(), 2) << "worker " << w;
    EXPECT_EQ(b[w].load(), 1) << "worker " << w;
  }
}

TEST(TeamSubmission, OwnedBodyTeamAcceptsSubmissionsAndRestores) {
  std::atomic<int> owned{0}, external{0};
  dc::Team team(2, dc::StartMode::kSpin, [&](unsigned) {
    owned.fetch_add(1);
  });
  team.run_cycle();
  team.run_cycle([&](unsigned) { external.fetch_add(1); });
  team.run_cycle();  // owned body must be restored after a submission
  EXPECT_EQ(owned.load(), 4);
  EXPECT_EQ(external.load(), 2);
}

TEST(TeamSubmission, TwoHostedExecutorsShareOnePool) {
  // The serve-layer shape: two independent graphs, each with a hosted
  // work-stealing executor, multiplexed over one team. Every cycle of
  // either executor must run its graph exactly once, with no cross-talk.
  dc::Team team(2, dc::StartMode::kCondvar);

  std::atomic<int> ran_a{0}, ran_b{0};
  dc::TaskGraph ga, gb;
  const auto a0 = ga.add_node("a0", [&] { ran_a.fetch_add(1); });
  const auto a1 = ga.add_node("a1", [&] { ran_a.fetch_add(1); });
  ga.add_edge(a0, a1);
  for (int i = 0; i < 3; ++i) {
    gb.add_node("b" + std::to_string(i), [&] { ran_b.fetch_add(1); });
  }
  dc::CompiledGraph ca(ga), cb(gb);

  dc::ExecOptions opts;
  opts.threads = team.threads();
  dc::WorkStealingExecutor ea(ca, team, opts);
  dc::WorkStealingExecutor eb(cb, team, opts);

  for (int cycle = 1; cycle <= 25; ++cycle) {
    ea.run_cycle();
    eb.run_cycle();
    ASSERT_EQ(ran_a.load(), 2 * cycle);
    ASSERT_EQ(ran_b.load(), 3 * cycle);
  }
  EXPECT_EQ(ea.stats().snapshot().nodes_executed, 50u);
  EXPECT_EQ(eb.stats().snapshot().nodes_executed, 75u);
  EXPECT_EQ(team.body_errors(), 0u);
}
