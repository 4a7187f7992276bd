// Unit tests for the persistent worker team.
//
// The contract: worker 0, plus every helper that joins while the cycle
// is open, runs the body once per cycle; run_cycle() returns when all of
// them are done. A body that needs every worker holds the cycle open
// (Rendezvous below) until all have entered.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "djstar/core/chaos.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/graph.hpp"
#include "djstar/core/team.hpp"
#include "djstar/core/work_stealing.hpp"

namespace dc = djstar::core;

namespace {

/// Worker 0 waits in the body until all `threads` workers have entered
/// the cycle, so every helper joins it.
class Rendezvous {
 public:
  explicit Rendezvous(unsigned threads) : threads_(threads) {}

  void arrive(unsigned w) {
    entered_.fetch_add(1);
    if (w != 0) return;
    const unsigned target = ++cycles_ * threads_;
    while (entered_.load() < target) std::this_thread::yield();
  }

 private:
  unsigned threads_;
  std::atomic<unsigned> entered_{0};
  unsigned cycles_ = 0;  // worker 0 only
};

/// CPU time of the whole process, in milliseconds.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Asserts that the whole process burns little CPU while the caller
/// sleeps 50 ms: the team's helpers are parked.
void expect_parked_for_50ms() {
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(process_cpu_ms() - before, 3.0)
      << "helpers burned CPU while the caller slept";
}

/// How a row's cycles find the helpers. A helper that finished a cycle
/// parks on the team's condition variable unless the next cycle is
/// already open when it gets there.
enum class Pacing {
  kSpin,     ///< back to back: helpers still awake from the last cycle
  kCondvar,  ///< the caller sleeps first, so the dispatch must notify
};

struct TeamCase {
  Pacing pacing;
  unsigned threads;
};

std::string team_case_name(const testing::TestParamInfo<TeamCase>& info) {
  return std::string(info.param.pacing == Pacing::kSpin ? "spin"
                                                        : "condvar") +
         "_t" + std::to_string(info.param.threads);
}

class TeamTest : public testing::TestWithParam<TeamCase> {
 protected:
  /// One cycle, opened as the row's pacing says.
  static void run(dc::Team& team) {
    if (GetParam().pacing == Pacing::kCondvar) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    team.run_cycle();
  }
};

}  // namespace

TEST_P(TeamTest, EveryWorkerRunsOncePerCycle) {
  const unsigned threads = GetParam().threads;
  Rendezvous all(threads);
  std::vector<std::atomic<int>> counts(threads);
  for (auto& c : counts) c.store(0);
  dc::Team team(threads, [&](unsigned w) {
    counts[w].fetch_add(1);
    all.arrive(w);
  });
  for (int cycle = 1; cycle <= 50; ++cycle) {
    run(team);
    for (unsigned w = 0; w < threads; ++w) {
      ASSERT_EQ(counts[w].load(), cycle) << "worker " << w;
    }
  }
}

TEST_P(TeamTest, WorkerIdsAreDistinct) {
  const unsigned threads = GetParam().threads;
  Rendezvous all(threads);
  std::mutex m;
  std::set<unsigned> ids;
  dc::Team team(threads, [&](unsigned w) {
    {
      const std::lock_guard<std::mutex> lk(m);
      ids.insert(w);
    }
    all.arrive(w);
  });
  run(team);
  EXPECT_EQ(ids.size(), threads);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), threads - 1);
}

TEST_P(TeamTest, RunCycleIsABarrier) {
  const unsigned threads = GetParam().threads;
  Rendezvous all(threads);
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  dc::Team team(threads, [&](unsigned w) {
    all.arrive(w);
    inside.fetch_add(1);
  });
  for (int cycle = 0; cycle < 20; ++cycle) {
    run(team);
    // After run_cycle returns, all workers of this cycle are done.
    if (inside.load() != (cycle + 1) * static_cast<int>(threads)) {
      overlap.store(true);
    }
  }
  EXPECT_FALSE(overlap.load());
}

TEST_P(TeamTest, EmptyBodyRunsWorkerZeroOnceAndNothingAfterReturn) {
  // With nothing holding the cycle open, which helpers join depends on
  // who wakes in time. What holds for every join pattern: worker 0 runs
  // once per cycle, each helper at most once, and no body runs after
  // run_cycle() returns.
  const unsigned threads = GetParam().threads;
  std::vector<std::atomic<int>> counts(threads);
  for (auto& c : counts) c.store(0);
  std::atomic<int> running{0};
  std::atomic<int> total{0};
  dc::Team team(threads, [&](unsigned w) {
    running.fetch_add(1);
    counts[w].fetch_add(1);
    total.fetch_add(1);
    running.fetch_sub(1);
  });
  for (int cycle = 1; cycle <= 50; ++cycle) {
    run(team);
    ASSERT_EQ(running.load(), 0) << "a body is still running";
    ASSERT_EQ(counts[0].load(), cycle);
    for (unsigned w = 1; w < threads; ++w) {
      ASSERT_LE(counts[w].load(), cycle) << "worker " << w;
    }
    const int after_return = total.load();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ASSERT_EQ(total.load(), after_return) << "a body ran after the return";
  }
}

INSTANTIATE_TEST_SUITE_P(ModesAndSizes, TeamTest,
                         testing::Values(TeamCase{Pacing::kSpin, 1},
                                         TeamCase{Pacing::kSpin, 2},
                                         TeamCase{Pacing::kSpin, 4},
                                         TeamCase{Pacing::kCondvar, 1},
                                         TeamCase{Pacing::kCondvar, 2},
                                         TeamCase{Pacing::kCondvar, 4}),
                         team_case_name);

TEST(Team, DestructorJoinsCleanly) {
  for (int i = 0; i < 10; ++i) {
    dc::Team team(3, [](unsigned) {});
    team.run_cycle();
    // Team destroyed immediately; must not hang or crash.
  }
  SUCCEED();
}

TEST(Team, SingleThreadRunsInline) {
  std::atomic<int> runs{0};
  dc::Team team(1, [&](unsigned w) {
    EXPECT_EQ(w, 0u);
    runs.fetch_add(1);
  });
  team.run_cycle();
  EXPECT_EQ(runs.load(), 1);
}

TEST(Team, ParkedTeamBurnsNoCpuBetweenCycles) {
  {
    // Every helper ran the cycle, so every helper is awake when it ends;
    // between cycles they park instead of spinning.
    Rendezvous all(4);
    dc::Team team(4, [&](unsigned w) { all.arrive(w); });
    team.run_cycle();
    expect_parked_for_50ms();
  }
  {
    // Helpers that join late, or wake into a cycle that already closed,
    // park again as well.
    dc::chaos::ScopedChaos chaos(11, 0);
    dc::chaos::set_intensity(dc::chaos::Site::kCycleStart, 1000);
    dc::Team team(4, [](unsigned) {});
    for (int cycle = 0; cycle < 20; ++cycle) {
      team.run_cycle();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    expect_parked_for_50ms();
    EXPECT_GT(dc::chaos::site_hits(dc::chaos::Site::kCycleStart), 20u)
        << "no helper observed a cycle";
  }
}

// ---- External submission mode (serve: one pool, many executors) ----

TEST(TeamSubmission, BodylessTeamRunsSubmittedBodies) {
  dc::Team team(3);
  Rendezvous all(3);
  std::vector<std::atomic<int>> a(3), b(3);
  for (auto& c : a) c.store(0);
  for (auto& c : b) c.store(0);

  const dc::Team::WorkerFn fa = [&](unsigned w) {
    a[w].fetch_add(1);
    all.arrive(w);
  };
  const dc::Team::WorkerFn fb = [&](unsigned w) {
    b[w].fetch_add(1);
    all.arrive(w);
  };
  team.run_cycle(fa);
  team.run_cycle(fb);
  team.run_cycle(fa);

  for (unsigned w = 0; w < 3; ++w) {
    EXPECT_EQ(a[w].load(), 2) << "worker " << w;
    EXPECT_EQ(b[w].load(), 1) << "worker " << w;
  }
}

TEST(TeamSubmission, OwnedBodyTeamAcceptsSubmissionsAndRestores) {
  Rendezvous all(2);
  std::atomic<int> owned{0}, external{0};
  dc::Team team(2, [&](unsigned w) {
    owned.fetch_add(1);
    all.arrive(w);
  });
  team.run_cycle();
  team.run_cycle([&](unsigned w) {
    external.fetch_add(1);
    all.arrive(w);
  });
  team.run_cycle();  // owned body must be restored after a submission
  EXPECT_EQ(owned.load(), 4);
  EXPECT_EQ(external.load(), 2);
}

TEST(TeamSubmission, TwoHostedExecutorsShareOnePool) {
  // The serve-layer shape: two independent graphs, each with a hosted
  // work-stealing executor, multiplexed over one team. Every cycle of
  // either executor must run its graph exactly once, with no cross-talk.
  dc::Team team(2);

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
