// Property tests: every strategy, on randomly generated DAGs, must run
// every node exactly once and never violate a dependency. This is the
// library's core correctness sweep (TEST_P over strategy x threads x
// graph seed). The generator lives in tests/common/random_dag.hpp and is
// shared with the stress harness (tests/stress/).
#include <gtest/gtest.h>

#include <string>

#include "common/random_dag.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"

namespace dc = djstar::core;
using djstar::test::ChainFanDag;
using djstar::test::InstrumentedDag;
using djstar::test::RandomDag;

namespace {

struct Case {
  dc::Strategy strategy;
  unsigned threads;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(dc::to_string(info.param.strategy)) + "_t" +
         std::to_string(info.param.threads) + "_s" +
         std::to_string(info.param.seed);
}

class RandomDagTest : public testing::TestWithParam<Case> {};

/// Runs `dag` for 30 cycles: every node exactly once, every
/// predecessor first, and the executor's own accounting agreeing (one
/// execution per node per cycle).
void check_exactly_once(InstrumentedDag& dag, const Case& p,
                        const std::string& shape) {
  constexpr int kCycles = 30;
  ASSERT_TRUE(dag.g.is_acyclic());
  dc::CompiledGraph cg(dag.g);
  dc::ExecOptions opts;
  opts.threads = p.threads;
  auto exec = dc::make_executor(p.strategy, cg, opts);
  const auto before = exec->stats().snapshot();
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    dag.reset();
    exec->run_cycle();
    for (std::size_t i = 0; i < dag.done.size(); ++i) {
      ASSERT_EQ(dag.done[i].load(), 1)
          << "shape " << shape << " cycle " << cycle << " node " << i;
    }
    for (dc::NodeId v = 0; v < dag.g.node_count(); ++v) {
      for (dc::NodeId pred : dag.g.predecessors(v)) {
        ASSERT_LT(dag.stamp[pred], dag.stamp[v])
            << "shape " << shape << " cycle " << cycle;
      }
    }
  }
  EXPECT_EQ(exec->stats().snapshot().nodes_executed - before.nodes_executed,
            kCycles * dag.g.node_count())
      << "shape " << shape;
}

}  // namespace

TEST_P(RandomDagTest, ExactlyOnceAndOrderedOverManyCycles) {
  const auto p = GetParam();
  // Mix of shapes: sparse wide graph, denser graph, near-chain...
  const double densities[] = {0.04, 0.15, 0.5};
  const std::size_t sizes[] = {40, 67, 25};
  for (int shape = 0; shape < 3; ++shape) {
    RandomDag dag(sizes[shape], densities[shape], p.seed * 17 + shape);
    check_exactly_once(dag, p, std::to_string(shape));
  }
  // ...and the chain-then-fan that is the thread-sleeping strategy's
  // worst case.
  ChainFanDag chain_fan(17, 6);
  check_exactly_once(chain_fan, p, "chain-fan");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagTest,
    testing::Values(
        Case{dc::Strategy::kBusyWait, 2, 1}, Case{dc::Strategy::kBusyWait, 3, 2},
        Case{dc::Strategy::kBusyWait, 4, 3}, Case{dc::Strategy::kSleep, 2, 1},
        Case{dc::Strategy::kSleep, 3, 2}, Case{dc::Strategy::kSleep, 4, 3},
        Case{dc::Strategy::kWorkStealing, 2, 1},
        Case{dc::Strategy::kWorkStealing, 3, 2},
        Case{dc::Strategy::kWorkStealing, 4, 3},
        Case{dc::Strategy::kSharedQueue, 2, 1},
        Case{dc::Strategy::kSharedQueue, 4, 3},
        Case{dc::Strategy::kSequential, 1, 4}),
    case_name);

TEST(RandomDagAcrossStrategies, CompletionSetsIdentical) {
  // All strategies on the same compiled graph produce the same "every
  // node ran" outcome; this guards against silently skipped nodes.
  RandomDag dag(67, 0.08, 99);
  dc::CompiledGraph cg(dag.g);
  for (dc::Strategy s : dc::kAllStrategies) {
    dag.reset();
    dc::ExecOptions opts;
    opts.threads = 4;
    auto exec = dc::make_executor(s, cg, opts);
    exec->run_cycle();
    for (std::size_t i = 0; i < dag.done.size(); ++i) {
      ASSERT_EQ(dag.done[i].load(), 1) << dc::to_string(s);
    }
  }
}
