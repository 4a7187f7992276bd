// Differential conformance suite for the graph-opt pipeline: every
// optimization mode ({off, fuse}) must be observationally
// identical to the unoptimized sequential baseline under every
// scheduling strategy — same exactly-once node execution, same
// precedence, and (on the real DJ graph) bit-identical audio. A single
// divergent sample or double-executed node here means the fusion pass
// broke the executors' contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random_dag.hpp"
#include "djstar/core/chaos.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/graph_opt.hpp"
#include "djstar/engine/engine.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace go = djstar::core::graph_opt;
namespace de = djstar::engine;
using djstar::test::ChainFanDag;
using djstar::test::check_cycle_invariants;
using djstar::test::InstrumentedDag;
using djstar::test::RandomDag;

namespace {

constexpr go::Mode kModes[] = {go::Mode::kOff, go::Mode::kFuse};

/// Run `cycles` cycles of `dag` under one (strategy, mode) combination
/// and check the executor invariants after each cycle. Also asserts the
/// per-node execution count via ExecutorStats: every node exactly once
/// per cycle, identical across all modes by construction.
void run_mode_conformance(InstrumentedDag& dag, dc::Strategy s, go::Mode mode,
                          unsigned threads, int cycles,
                          const std::string& context) {
  const std::size_t n = dag.g.node_count();
  const go::CostModel costs(n, 0.5);  // everything cheap -> fusion fires
  const auto plan = mode == go::Mode::kOff
                        ? go::Plan::identity(n)
                        : go::plan_fusion(dag.g, costs, {});
  ASSERT_TRUE(plan.validate(dag.g)) << context;
  dc::CompiledGraph cg(dag.g, plan);

  dc::ExecOptions opts;
  opts.threads = threads;
  const auto ex = dc::make_executor(s, cg, opts);
  const auto before = ex->stats().snapshot();
  for (int c = 0; c < cycles; ++c) {
    dag.reset();
    ex->run_cycle();
    check_cycle_invariants(dag, context + " cycle " + std::to_string(c));
  }
  const auto after = ex->stats().snapshot();
  ASSERT_EQ(after.nodes_executed - before.nodes_executed,
            static_cast<std::uint64_t>(cycles) * n)
      << context << ": per-node execution count diverged";
}

void sweep_all(InstrumentedDag& dag, const std::string& tag, unsigned threads,
               int cycles) {
  for (dc::Strategy s : dc::kAllStrategies) {
    for (go::Mode mode : kModes) {
      run_mode_conformance(dag, s, mode, threads, cycles,
                           tag + "/" + std::string(dc::to_string(s)) + "/" +
                               std::string(go::to_string(mode)));
    }
  }
}

/// Render `cycles` packets of the real DJ graph and concatenate.
std::vector<float> render(dc::Strategy s, unsigned threads, go::Mode mode,
                          std::size_t cycles) {
  de::EngineConfig cfg;
  cfg.strategy = s;
  cfg.threads = threads;
  cfg.graph_opt = mode;
  de::AudioEngine e(cfg);
  std::vector<float> out;
  out.reserve(cycles * 2 * djstar::audio::kBlockSize);
  for (std::size_t i = 0; i < cycles; ++i) {
    e.run_cycle();
    const auto& buf = e.output();
    out.insert(out.end(), buf.raw().begin(), buf.raw().end());
  }
  return out;
}

}  // namespace

// ---- randomized DAGs --------------------------------------------------------

TEST(GraphOptConformance, RandomDagsAllStrategiesAllModes) {
  for (std::uint64_t seed : {3u, 17u}) {
    RandomDag dag(34, 0.07, seed);
    sweep_all(dag, "random" + std::to_string(seed), 4, djstar::test::scaled(6));
  }
}

TEST(GraphOptConformance, DenseAndSparseShapes) {
  RandomDag dense(24, 0.3, 41);   // deep dependency structure
  sweep_all(dense, "dense", 4, djstar::test::scaled(5));
  RandomDag sparse(40, 0.01, 42);  // almost all nodes independent
  sweep_all(sparse, "sparse", 4, djstar::test::scaled(5));
}

TEST(GraphOptConformance, ChainFanWorstCase) {
  // The thread-sleeping executor's worst case, now with the chain fused
  // into multi-node units.
  ChainFanDag dag(17, 6);
  sweep_all(dag, "chainfan", 4, djstar::test::scaled(6));
}

TEST(GraphOptConformance, TwoThreadSweep) {
  RandomDag dag(28, 0.09, 23);
  sweep_all(dag, "t2", 2, djstar::test::scaled(5));
}

TEST(GraphOptConformance, RandomDagsUnderScopedChaos) {
  // Schedule fuzzing: chaos perturbs the executors' race windows while
  // fused units are active.
  dc::chaos::ScopedChaos chaos(0xC0FFEEu);
  RandomDag dag(30, 0.08, 9);
  for (dc::Strategy s : dc::kAllStrategies) {
    for (go::Mode mode : {go::Mode::kFuse}) {
      run_mode_conformance(dag, s, mode, 4, djstar::test::scaled(4),
                           "chaos/" + std::string(dc::to_string(s)) + "/" +
                               std::string(go::to_string(mode)));
    }
  }
}

// ---- the real DJ graph ------------------------------------------------------

TEST(GraphOptConformance, EngineAudioBitIdenticalAcrossModes) {
  constexpr std::size_t kCycles = 24;
  const auto reference =
      render(dc::Strategy::kSequential, 1, go::Mode::kOff, kCycles);
  for (dc::Strategy s : dc::kAllStrategies) {
    const unsigned threads = s == dc::Strategy::kSequential ? 1 : 4;
    for (go::Mode mode : kModes) {
      const auto out = render(s, threads, mode, kCycles);
      ASSERT_EQ(reference.size(), out.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i], out[i])
            << "sample " << i << " differs under " << dc::to_string(s) << "/"
            << go::to_string(mode);
      }
    }
  }
}

TEST(GraphOptConformance, EngineFusionActuallyFusesTheDjGraph) {
  de::EngineConfig cfg;
  cfg.graph_opt = go::Mode::kFuse;
  cfg.threads = 2;
  de::AudioEngine e(cfg);
  // The DJ graph is full of sub-microsecond per-deck chains; the pass
  // must find at least some of them or the mode is a silent no-op.
  EXPECT_TRUE(e.compiled().fused());
  EXPECT_LT(e.compiled().unit_count(), e.compiled().node_count());
}

// ---- engine wiring ----------------------------------------------------------

TEST(GraphOptEngine, EnvOverridesConfig) {
  ::setenv("DJSTAR_GRAPH_OPT", "fuse", 1);
  de::EngineConfig cfg;  // graph_opt defaults to off
  cfg.threads = 1;
  cfg.strategy = dc::Strategy::kSequential;
  de::AudioEngine e(cfg);
  EXPECT_EQ(e.graph_opt_mode(), go::Mode::kFuse);
  ::unsetenv("DJSTAR_GRAPH_OPT");
}

TEST(GraphOptEngine, EnvGarbageThrows) {
  de::EngineConfig cfg;
  cfg.threads = 1;
  // fuse+static named the static-plan mode, which no longer exists.
  for (const char* garbage : {"turbo", "fuse+static"}) {
    ::setenv("DJSTAR_GRAPH_OPT", garbage, 1);
    EXPECT_THROW(de::AudioEngine{cfg}, std::invalid_argument) << garbage;
  }
  ::unsetenv("DJSTAR_GRAPH_OPT");
}

