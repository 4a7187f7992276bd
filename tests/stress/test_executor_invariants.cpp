// Tentpole of the concurrency-correctness harness: replay every
// scheduling strategy over randomized DAGs with schedule fuzzing
// enabled, and assert the executor contract after every cycle —
// exactly-once execution, precedence order, and ExecutorStats /
// span-ring consistency. Thread counts deliberately exceed the
// core count (oversubscription is where lost wakeups live), and every
// helper stalls before it joins a cycle (kCycleStart at full
// intensity), so helpers routinely miss cycles and the joined workers
// adopt their nodes. Each strategy runs on an owned team and, as the
// serve layer runs it, hosted on a shared one.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "djstar/core/chaos.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/loop_executor.hpp"
#include "djstar/support/flight.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace dt = djstar::test;

namespace {

struct SweepCase {
  dc::Strategy strategy;
};

std::string sweep_name(const testing::TestParamInfo<SweepCase>& info) {
  return std::string(dc::to_string(info.param.strategy));
}

/// A hosted executor of `strategy` on `team`.
std::unique_ptr<dc::Executor> make_hosted(dc::Strategy strategy,
                                          dc::CompiledGraph& cg,
                                          dc::Team& team,
                                          const dc::ExecOptions& opts) {
  switch (strategy) {
    case dc::Strategy::kBusyWait:
      return std::make_unique<dc::LoopExecutor<dc::Strategy::kBusyWait>>(
          cg, team, opts);
    case dc::Strategy::kSleep:
      return std::make_unique<dc::LoopExecutor<dc::Strategy::kSleep>>(
          cg, team, opts);
    case dc::Strategy::kWorkStealing:
      return std::make_unique<dc::LoopExecutor<dc::Strategy::kWorkStealing>>(
          cg, team, opts);
    case dc::Strategy::kSharedQueue:
      return std::make_unique<dc::LoopExecutor<dc::Strategy::kSharedQueue>>(
          cg, team, opts);
    case dc::Strategy::kSequential:
      break;
  }
  return nullptr;
}

/// The sweep runs each strategy on an owned team (ExecutorInvariantSweep)
/// and on a shared bodyless team (HostedExecutorInvariantSweep).
class ExecutorInvariantSweep : public testing::TestWithParam<SweepCase> {
 protected:
  void replay_under_chaos(bool hosted);
};

class HostedExecutorInvariantSweep : public ExecutorInvariantSweep {};

}  // namespace

void ExecutorInvariantSweep::replay_under_chaos(bool hosted) {
  const dc::Strategy strategy = GetParam().strategy;
  const bool sequential = strategy == dc::Strategy::kSequential;

  // >= 500 run_cycle invocations per executor in uninstrumented builds
  // (25 graphs x 20 cycles), scaled down under sanitizers.
  const int kGraphs = dt::scaled(25);
  const int kCycles = dt::scaled(20);
  const double kDensities[] = {0.04, 0.12, 0.3, 0.6};
  const unsigned kThreads[] = {2, 3, 4, 8};  // 8 oversubscribes this box

  dt::Watchdog watchdog(dt::scaled_timeout(120),
                        std::string("invariant sweep ") +
                            std::string(dc::to_string(strategy)));
  dc::chaos::ScopedChaos chaos(0xD15EA5E0 + static_cast<int>(strategy), 150);
  dc::chaos::set_intensity(dc::chaos::Site::kCycleStart, 1000);

  int runs = 0;
  for (int g = 0; g < kGraphs; ++g) {
    const std::size_t n = 20 + (static_cast<std::size_t>(g) * 7) % 45;
    dt::RandomDag dag(n, kDensities[g % 4], 1000 + g * 31);
    ASSERT_TRUE(dag.g.is_acyclic());
    dc::CompiledGraph cg(dag.g);

    // Ring large enough to keep every cycle: no span is overwritten.
    djstar::support::FlightRecorder flight;
    dc::ExecOptions opts;
    opts.threads = sequential ? 1 : kThreads[g % 4];
    opts.flight = &flight;
    flight.configure(opts.threads, n * static_cast<std::size_t>(kCycles) * 3);

    const std::string label = std::string(dc::to_string(strategy)) +
                              (hosted ? " hosted" : "") + " graph " +
                              std::to_string(g);
    std::unique_ptr<dc::Team> team;
    std::unique_ptr<dc::Executor> exec;
    if (hosted) {
      team = std::make_unique<dc::Team>(opts.threads);
      exec = make_hosted(strategy, cg, *team, opts);
    } else {
      exec = dc::make_executor(strategy, cg, opts);
    }
    const auto before = exec->stats().snapshot();

    for (int cycle = 0; cycle < kCycles; ++cycle) {
      dag.reset();
      flight.begin_cycle();
      exec->run_cycle();
      ++runs;
      check_cycle_invariants(dag, label + " cycle " + std::to_string(cycle));
    }

    dt::check_stats_trace_consistency(before, exec->stats().snapshot(),
                                      flight, n,
                                      static_cast<std::size_t>(kCycles),
                                      label);
    exec.reset();  // before the team it runs on
  }

  if constexpr (!dt::kTsan && !dt::kAsan) {
    EXPECT_GE(runs, 500) << "stress budget silently shrank";
  }
  // The sweep must actually have been perturbed, or it degenerates into
  // the plain tier-1 property test. (Sequential has no synchronization
  // and therefore no fuzzing sites — the control case stays quiet.)
  if (!sequential) {
    EXPECT_GT(dc::chaos::perturbations(), 0u);
  }
}

TEST_P(ExecutorInvariantSweep, RandomizedDagReplayUnderChaos) {
  replay_under_chaos(false);
}

TEST_P(HostedExecutorInvariantSweep, RandomizedDagReplayUnderChaos) {
  replay_under_chaos(true);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ExecutorInvariantSweep,
                         testing::Values(SweepCase{dc::Strategy::kBusyWait},
                                         SweepCase{dc::Strategy::kSleep},
                                         SweepCase{dc::Strategy::kWorkStealing},
                                         SweepCase{dc::Strategy::kSharedQueue},
                                         SweepCase{dc::Strategy::kSequential}),
                         sweep_name);

INSTANTIATE_TEST_SUITE_P(
    AllParallelStrategies, HostedExecutorInvariantSweep,
    testing::Values(SweepCase{dc::Strategy::kBusyWait},
                    SweepCase{dc::Strategy::kSleep},
                    SweepCase{dc::Strategy::kWorkStealing},
                    SweepCase{dc::Strategy::kSharedQueue}),
    sweep_name);
