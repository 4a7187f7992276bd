// Parameterized tests of the four scheduling strategies over fixed
// graphs: exactly-once execution, dependency ordering, cross-cycle reuse,
// stats, and schedule tracing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "djstar/core/chaos.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/support/flight.hpp"

namespace dc = djstar::core;

namespace {

struct Case {
  dc::Strategy strategy;
  unsigned threads;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(dc::to_string(info.param.strategy)) + "_t" +
         std::to_string(info.param.threads);
}

/// Execution recorder: every node appends its id; order checked later.
struct Recorder {
  explicit Recorder(std::size_t nodes) : done(nodes) {
    for (auto& d : done) d.store(0);
    seq.store(0);
    stamp.resize(nodes);
  }
  std::vector<std::atomic<int>> done;
  std::atomic<std::uint64_t> seq;
  std::vector<std::uint64_t> stamp;  // completion order stamp per node

  dc::WorkFn work(dc::NodeId id) {
    return [this, id] {
      stamp[id] = seq.fetch_add(1) + 1;
      done[id].fetch_add(1);
    };
  }
  void reset() {
    for (auto& d : done) d.store(0);
    seq.store(0);
    for (auto& s : stamp) s = 0;
  }
};

/// The DJ Star shape in miniature: 6 sources, 2 chains, a mix, a tail.
struct MiniGraph {
  dc::TaskGraph g;
  Recorder rec{12};
  std::vector<dc::NodeId> ids;

  MiniGraph() {
    for (int i = 0; i < 12; ++i) {
      ids.push_back(g.add_node("n" + std::to_string(i),
                               rec.work(static_cast<dc::NodeId>(i)),
                               i < 6 ? (i < 3 ? "deckA" : "deckB")
                                     : "master"));
    }
    // sources 0..5; chainA: 0,1,2 -> 6 -> 7 ; chainB: 3,4,5 -> 8 -> 9
    // mix: 7,9 -> 10 -> 11
    for (int s : {0, 1, 2}) g.add_edge(ids[s], ids[6]);
    g.add_edge(ids[6], ids[7]);
    for (int s : {3, 4, 5}) g.add_edge(ids[s], ids[8]);
    g.add_edge(ids[8], ids[9]);
    g.add_edge(ids[7], ids[10]);
    g.add_edge(ids[9], ids[10]);
    g.add_edge(ids[10], ids[11]);
  }

  void check_dependencies_respected() {
    for (dc::NodeId v = 0; v < g.node_count(); ++v) {
      for (dc::NodeId p : g.predecessors(v)) {
        EXPECT_LT(rec.stamp[p], rec.stamp[v])
            << "node " << v << " ran before predecessor " << p;
      }
    }
  }
};

class ExecutorTest : public testing::TestWithParam<Case> {};

}  // namespace

TEST_P(ExecutorTest, RunsEveryNodeExactlyOnce) {
  const auto p = GetParam();
  MiniGraph mg;
  dc::CompiledGraph cg(mg.g);
  dc::ExecOptions opts;
  opts.threads = p.threads;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  exec->run_cycle();
  for (auto& d : mg.rec.done) EXPECT_EQ(d.load(), 1);
}

TEST_P(ExecutorTest, RespectsDependencies) {
  const auto p = GetParam();
  MiniGraph mg;
  dc::CompiledGraph cg(mg.g);
  dc::ExecOptions opts;
  opts.threads = p.threads;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  exec->run_cycle();
  mg.check_dependencies_respected();
}

TEST_P(ExecutorTest, ManyCyclesStayCorrect) {
  const auto p = GetParam();
  MiniGraph mg;
  dc::CompiledGraph cg(mg.g);
  dc::ExecOptions opts;
  opts.threads = p.threads;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  for (int cycle = 0; cycle < 300; ++cycle) {
    mg.rec.reset();
    exec->run_cycle();
    for (auto& d : mg.rec.done) ASSERT_EQ(d.load(), 1) << "cycle " << cycle;
    mg.check_dependencies_respected();
  }
}

TEST_P(ExecutorTest, StatsCountNodes) {
  const auto p = GetParam();
  MiniGraph mg;
  dc::CompiledGraph cg(mg.g);
  dc::ExecOptions opts;
  opts.threads = p.threads;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  exec->run_cycle();
  exec->run_cycle();
  EXPECT_EQ(exec->stats().nodes_executed.load(), 24u);
  exec->stats_reset();
  EXPECT_EQ(exec->stats().nodes_executed.load(), 0u);
}

TEST_P(ExecutorTest, TracingRecordsOneRunSpanPerNode) {
  const auto p = GetParam();
  MiniGraph mg;
  dc::CompiledGraph cg(mg.g);
  djstar::support::FlightRecorder flight;
  flight.configure(p.threads);
  dc::ExecOptions opts;
  opts.threads = p.threads;
  opts.flight = &flight;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  flight.begin_cycle();
  exec->run_cycle();
  std::vector<djstar::support::TraceSpan> spans;
  flight.collect_cycle(flight.cycle(), spans);
  int runs = 0;
  for (const auto& s : spans) {
    if (s.kind == djstar::support::SpanKind::kRun) {
      ++runs;
      EXPECT_GE(s.end_us, s.begin_us);
      EXPECT_LT(s.thread, p.threads);
      EXPECT_GE(s.node, 0);
    }
  }
  EXPECT_EQ(runs, 12);
}

TEST_P(ExecutorTest, WaitSpansCarryTheConfigurationsFig11Colour) {
  // Two sources joined by one node, on 2 threads. The sources rendezvous,
  // so each worker runs one. The source on the caller thread (worker 0)
  // returns at once; the other keeps running until worker 0 reached the
  // site where it waits for the join (lanes: the join's dependency
  // check; shared and ws: the ready-queue wait), then 20 us more. So
  // every cycle worker 0 waits at least 20 us, whatever the scheduler
  // does, and every configuration records the wait in its own colour
  // (sequential never waits).
  namespace chaos = dc::chaos;
  const auto p = GetParam();
  const bool parallel = p.strategy != dc::Strategy::kSequential;
  const unsigned threads = parallel ? 2 : 1;
  const chaos::Site wait_site = p.strategy == dc::Strategy::kBusyWait ||
                                        p.strategy == dc::Strategy::kSleep
                                    ? chaos::Site::kDependencyCheck
                                    : chaos::Site::kBeforeWait;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> hits_at_rendezvous{0};
  std::atomic<bool> armed{false};
  std::atomic<bool> timed_out{false};
  // Spin until `done` holds; a 10 s guard keeps a broken executor from
  // hanging the suite (and fails the test below).
  const auto spin_until = [&](const auto& done) {
    const auto guard =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      if (std::chrono::steady_clock::now() > guard) {
        timed_out.store(true);
        return;
      }
    }
  };
  const auto source = [&] {
    if (!parallel) return;
    started.fetch_add(1);
    spin_until([&] { return started.load() == 2; });
    if (std::this_thread::get_id() == caller) {
      spin_until([&] { return armed.load(); });
      return;
    }
    // Worker 0 is in its body until `armed`, so every later hit of the
    // wait site is its own.
    hits_at_rendezvous.store(chaos::site_hits(wait_site));
    armed.store(true);
    spin_until([&] {
      return chaos::site_hits(wait_site) > hits_at_rendezvous.load();
    });
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  dc::TaskGraph g;
  const dc::NodeId a = g.add_node("a", source);
  const dc::NodeId b = g.add_node("b", source);
  const dc::NodeId join = g.add_node("join", [] {});
  g.add_edge(a, join);
  g.add_edge(b, join);
  dc::CompiledGraph cg(g);
  djstar::support::FlightRecorder flight;
  flight.configure(threads);
  dc::ExecOptions opts;
  opts.threads = threads;
  opts.flight = &flight;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  EXPECT_EQ(exec->name(), dc::to_string(p.strategy));
  // Intensity 0: the hook counts site hits and never delays.
  const chaos::ScopedChaos counting(/*seed=*/1, /*intensity_permille=*/0);
  for (int c = 0; c < 5; ++c) {
    started.store(0);
    armed.store(false);
    flight.begin_cycle();
    exec->run_cycle();
  }
  EXPECT_FALSE(timed_out.load());

  using djstar::support::SpanKind;
  SpanKind expected = SpanKind::kSleep;  // sleep, shared
  if (p.strategy == dc::Strategy::kBusyWait) expected = SpanKind::kBusyWait;
  if (p.strategy == dc::Strategy::kWorkStealing) expected = SpanKind::kSteal;
  int waits = 0;
  int long_waits = 0;
  for (const auto& s : flight.collect_last(5, 0.0)) {
    if (s.kind == SpanKind::kRun) continue;
    ++waits;
    if (s.thread == 0 && s.end_us - s.begin_us >= 20.0) ++long_waits;
    EXPECT_EQ(s.kind, expected) << djstar::support::to_string(s.kind);
  }
  if (parallel) {
    EXPECT_GE(long_waits, 5) << "worker 0 waits at least 20 us every cycle";
  } else {
    EXPECT_EQ(waits, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ExecutorTest,
    testing::Values(Case{dc::Strategy::kSequential, 1},
                    Case{dc::Strategy::kBusyWait, 1},
                    Case{dc::Strategy::kBusyWait, 2},
                    Case{dc::Strategy::kBusyWait, 4},
                    Case{dc::Strategy::kSleep, 1},
                    Case{dc::Strategy::kSleep, 2},
                    Case{dc::Strategy::kSleep, 4},
                    Case{dc::Strategy::kWorkStealing, 1},
                    Case{dc::Strategy::kWorkStealing, 2},
                    Case{dc::Strategy::kWorkStealing, 4},
                    Case{dc::Strategy::kSharedQueue, 1},
                    Case{dc::Strategy::kSharedQueue, 2},
                    Case{dc::Strategy::kSharedQueue, 4}),
    case_name);

TEST(ExecutorFactory, NamesRoundTrip) {
  for (dc::Strategy s : dc::kAllStrategies) {
    const auto parsed = dc::parse_strategy(dc::to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(dc::parse_strategy("nonsense").has_value());
  EXPECT_EQ(dc::parse_strategy("work-stealing"), dc::Strategy::kWorkStealing);
}

TEST(WorkStealingSeed, RoundRobinModeAlsoCorrect) {
  MiniGraph mg;
  dc::CompiledGraph cg(mg.g);
  dc::ExecOptions opts;
  opts.threads = 3;
  dc::WorkStealingOptions ws;
  ws.seed = dc::SeedMode::kRoundRobin;
  dc::WorkStealingExecutor exec(cg, opts, ws);
  for (int i = 0; i < 50; ++i) {
    mg.rec.reset();
    exec.run_cycle();
    for (auto& d : mg.rec.done) ASSERT_EQ(d.load(), 1);
  }
}

TEST(SingleNodeGraph, AllStrategiesHandleIt) {
  for (dc::Strategy s : dc::kAllStrategies) {
    std::atomic<int> hits{0};
    dc::TaskGraph g;
    g.add_node("only", [&] { hits.fetch_add(1); });
    dc::CompiledGraph cg(g);
    dc::ExecOptions opts;
    opts.threads = 4;  // more threads than nodes
    auto exec = dc::make_executor(s, cg, opts);
    exec->run_cycle();
    EXPECT_EQ(hits.load(), 1) << dc::to_string(s);
  }
}

TEST(ChainGraph, NoParallelismStillCorrect) {
  // A pure chain: worst case for round-robin (every node waits).
  for (dc::Strategy s : dc::kParallelStrategies) {
    Recorder rec(8);
    dc::TaskGraph g;
    std::vector<dc::NodeId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(g.add_node("c", rec.work(static_cast<dc::NodeId>(i))));
    }
    for (int i = 0; i + 1 < 8; ++i) g.add_edge(ids[i], ids[i + 1]);
    dc::CompiledGraph cg(g);
    dc::ExecOptions opts;
    opts.threads = 4;
    auto exec = dc::make_executor(s, cg, opts);
    exec->run_cycle();
    for (int i = 0; i + 1 < 8; ++i) {
      ASSERT_LT(rec.stamp[ids[i]], rec.stamp[ids[i + 1]])
          << dc::to_string(s);
    }
  }
}
