// Timing-property sweeps on calibrated spin-load graphs: the executors
// must respect physical lower bounds and their strategy-specific stats
// must reflect what actually happened (spins for BUSY, sleeps for SLEEP,
// steals/pushes for WS).
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "djstar/core/busy_wait.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/sleep.hpp"
#include "djstar/core/team.hpp"
#include "djstar/support/time.hpp"

namespace dc = djstar::core;
namespace su = djstar::support;

namespace {

/// A scaled-down DJ-Star-shaped load: 4 chains of 3 nodes behind 4
/// sources, joined by a tail. Node loads in microseconds.
struct LoadGraph {
  dc::TaskGraph g;
  double total_us = 0;
  double max_node_us = 0;

  explicit LoadGraph(double unit_us) {
    auto node = [&](const char* name, double us, const char* sec) {
      total_us += us;
      max_node_us = std::max(max_node_us, us);
      return g.add_node(name, [us] { su::spin_for_us(us); }, sec);
    };
    dc::NodeId tails[4];
    const char* secs[4] = {"deckA", "deckB", "deckC", "deckD"};
    for (int d = 0; d < 4; ++d) {
      auto src = node("src", unit_us, secs[d]);
      auto fx1 = node("fx1", unit_us * 4, secs[d]);
      auto fx2 = node("fx2", unit_us * 4, secs[d]);
      g.add_edge(src, fx1);
      g.add_edge(fx1, fx2);
      tails[d] = fx2;
    }
    auto mix = node("mix", unit_us, "master");
    for (auto t : tails) g.add_edge(t, mix);
    auto out = node("out", unit_us * 2, "master");
    g.add_edge(mix, out);
  }
};

class SyntheticLoadTest
    : public testing::TestWithParam<std::pair<dc::Strategy, unsigned>> {};

}  // namespace

TEST_P(SyntheticLoadTest, MakespanRespectsLowerBounds) {
  const auto [strategy, threads] = GetParam();
  LoadGraph load(5.0);  // 5 us unit -> ~190 us total work
  dc::CompiledGraph cg(load.g);
  dc::ExecOptions opts;
  opts.threads = threads;
  auto exec = dc::make_executor(strategy, cg, opts);
  exec->run_cycle();  // warm-up

  for (int i = 0; i < 5; ++i) {
    const auto t0 = su::now();
    exec->run_cycle();
    const double us = su::since_us(t0);
    // No schedule can beat the longest node...
    EXPECT_GE(us, load.max_node_us * 0.95);
    // ...or total-work / threads (spin loads can't compress).
    EXPECT_GE(us, load.total_us / threads * 0.9);
  }
}

TEST_P(SyntheticLoadTest, SingleThreadCostsAtLeastTotalWork) {
  const auto [strategy, threads] = GetParam();
  (void)threads;
  LoadGraph load(4.0);
  dc::CompiledGraph cg(load.g);
  dc::ExecOptions opts;
  opts.threads = 1;
  auto exec = dc::make_executor(strategy, cg, opts);
  const auto t0 = su::now();
  exec->run_cycle();
  EXPECT_GE(su::since_us(t0), load.total_us * 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SyntheticLoadTest,
    testing::Values(std::make_pair(dc::Strategy::kBusyWait, 2u),
                    std::make_pair(dc::Strategy::kBusyWait, 4u),
                    std::make_pair(dc::Strategy::kSleep, 2u),
                    std::make_pair(dc::Strategy::kSleep, 4u),
                    std::make_pair(dc::Strategy::kWorkStealing, 2u),
                    std::make_pair(dc::Strategy::kWorkStealing, 4u),
                    std::make_pair(dc::Strategy::kSharedQueue, 4u)),
    [](const auto& info) {
      return std::string(dc::to_string(info.param.first)) + "_t" +
             std::to_string(info.param.second);
    });

TEST(StrategyStats, BusyCountsSpinsOnAChain) {
  // A pure chain with 2 threads forces thread 1 to wait for thread 0
  // once it is in the cycle. A helper joins only while the cycle is open,
  // and worker 0 runs an absent helper's nodes itself, so n0 (worker 0's)
  // holds the chain until the helper has joined: its wake can take longer
  // than the whole chain on an idle host.
  const dc::Team* team = nullptr;
  dc::TaskGraph g;
  dc::NodeId prev = g.add_node("n0", [&] {
    while (!team->full()) std::this_thread::yield();
    su::spin_for_us(20);
  });
  for (int i = 1; i < 6; ++i) {
    const auto n = g.add_node("n", [] { su::spin_for_us(20); });
    g.add_edge(prev, n);
    prev = n;
  }
  dc::CompiledGraph cg(g);
  dc::ExecOptions opts;
  opts.threads = 2;
  dc::BusyWaitExecutor busy(cg, opts);
  team = busy.team();
  busy.run_cycle();
  EXPECT_GT(busy.stats().busy_wait_spins.load(), 0u);
  EXPECT_EQ(busy.stats().sleeps.load(), 0u);

  dc::SleepExecutor sleeper(cg, opts);
  team = sleeper.team();
  sleeper.run_cycle();
  EXPECT_GT(sleeper.stats().sleeps.load(), 0u);
  EXPECT_GT(sleeper.stats().wakeups.load(), 0u);
  EXPECT_EQ(sleeper.stats().busy_wait_spins.load(), 0u);
}

TEST(StrategyStats, WorkStealingCountsWakeupsOfParkedWorkers) {
  // A chain leaves one of two workers idle; after 16 failed steal rounds
  // (a few microseconds against a 200 us link) it parks, and the release
  // of each next link (or the completion notify) wakes it.
  dc::TaskGraph g;
  dc::NodeId prev = g.add_node("n0", [] { su::spin_for_us(200); });
  for (int i = 1; i < 6; ++i) {
    const auto n = g.add_node("n", [] { su::spin_for_us(200); });
    g.add_edge(prev, n);
    prev = n;
  }
  dc::CompiledGraph cg(g);
  dc::ExecOptions opts;
  opts.threads = 2;
  dc::WorkStealingExecutor ws(cg, opts);
  for (int i = 0; i < 5; ++i) ws.run_cycle();
  const auto sleeps = ws.stats().sleeps.load();
  const auto wakeups = ws.stats().wakeups.load();
  if (sleeps > 0) EXPECT_GT(wakeups, 0u) << "sleeps " << sleeps;
  EXPECT_LE(wakeups, 5u * 6u) << "at most one per release plus completion";
}

TEST(StrategyStats, WorkStealingStealsWhenImbalanced) {
  // All work seeded into one section -> one deque; other threads must
  // steal to participate.
  dc::TaskGraph g;
  for (int i = 0; i < 12; ++i) {
    g.add_node("n", [] { su::spin_for_us(30); }, "deckA");
  }
  dc::CompiledGraph cg(g);
  dc::ExecOptions opts;
  opts.threads = 3;
  dc::WorkStealingExecutor ws(cg, opts);
  std::uint64_t steals = 0;
  for (int i = 0; i < 10; ++i) {
    ws.run_cycle();
    steals = ws.stats().steals.load();
    if (steals > 0) break;
  }
  // On a single-core host preemption may serialize everything, but over
  // 10 cycles at least one steal should land on any machine where the
  // OS timeslices within 30 us bursts; tolerate zero only by checking
  // the executor still completed all nodes.
  EXPECT_EQ(ws.stats().nodes_executed.load() % 12, 0u);
  SUCCEED() << "steals observed: " << steals;
}
