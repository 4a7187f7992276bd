// djstar/core/loop_executor.hpp
// The one worker loop behind every scheduling strategy (paper §V).
//
// The paper's strategies differ in only two ways: how a thread gets its
// next node, and how it waits when none is ready. LoopExecutor<S> is the
// loop; the strategy S picks its two parts (DESIGN.md §5):
//
//   strategy     ready-source                         wait      span
//   sequential   own lane of the sorted queue, T = 1  none      -
//   busy         own round-robin lane                 spin      kBusyWait
//   sleep        own round-robin lane                 park      kSleep
//   shared       one mutex-protected ring of ready    park      kSleep
//   ws           per-worker Chase-Lev deques + steal  spin,park kSteal
//
// The loop itself writes once what every strategy shares: the
// flight-recorder sink, the wait span (the configuration's Fig. 11
// colour), the claim CAS every node passes, and the adoption of ready
// nodes whose owner is absent — a helper that has not joined the cycle
// yet, or a quarantined one (DESIGN.md §5, §12). Every wait is bounded,
// so one path serves clean cycles, late helpers and dead workers alike.
//
// The ready-sources live in loop_executor.cpp; the five strategies are
// explicitly instantiated there, and busy_wait.hpp, sleep.hpp,
// shared_queue.hpp, work_stealing.hpp and sequential.hpp name them.
#pragma once

#include <memory>

#include "djstar/core/executor.hpp"
#include "djstar/core/team.hpp"
#include "djstar/support/time.hpp"

namespace djstar::core {

/// Where a strategy's workers get ready nodes from (loop_executor.cpp).
template <Strategy S>
class ReadySource;

/// One compiled graph run by the worker loop configured as strategy S.
template <Strategy S>
class LoopExecutor final : public Executor {
 public:
  /// Owns its worker pool (the sequential strategy runs on the caller
  /// and owns none).
  explicit LoopExecutor(CompiledGraph& graph, ExecOptions opts = {},
                        WorkStealingOptions ws = {});

  /// Hosted variant: run on `shared_team` (external-submission mode)
  /// instead of owning a worker pool. The serve layer uses this to
  /// multiplex many session graphs over one team; opts.threads must
  /// equal shared_team.threads(). The team must outlive the executor.
  LoopExecutor(CompiledGraph& graph, Team& shared_team, ExecOptions opts = {},
               WorkStealingOptions ws = {});

  ~LoopExecutor() override;

  void run_cycle() override;
  std::string_view name() const noexcept override { return to_string(S); }
  unsigned threads() const noexcept override { return opts_.threads; }
  const Team* team() const noexcept override {
    return shared_ != nullptr ? shared_ : team_.get();
  }

 private:
  void body(unsigned w);

  CompiledGraph& graph_;
  ExecOptions opts_;
  std::unique_ptr<ReadySource<S>> src_;
  support::Clock::time_point cycle_start_{};
  Team* shared_ = nullptr;  // borrowed pool (hosted mode)
  Team::WorkerFn body_;     // submitted per cycle in hosted mode
  std::unique_ptr<Team> team_;  // owned pool; last: workers use the above
};

extern template class LoopExecutor<Strategy::kSequential>;
extern template class LoopExecutor<Strategy::kBusyWait>;
extern template class LoopExecutor<Strategy::kSleep>;
extern template class LoopExecutor<Strategy::kWorkStealing>;
extern template class LoopExecutor<Strategy::kSharedQueue>;

}  // namespace djstar::core
