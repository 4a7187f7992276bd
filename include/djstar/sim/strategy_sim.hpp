// djstar/sim/strategy_sim.hpp
// Virtual-time models of the three scheduling strategies.
//
// The paper replayed its BUSY strategy inside RESCON to separate
// algorithmic schedule quality from thread-management overhead (§VI,
// Fig. 12: 327 us simulated vs 452 us measured). We extend the same idea
// to all three strategies with an explicit overhead model, which also
// lets the reproduction run "on" a virtual 4-core machine regardless of
// the host's core count (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <vector>

#include "djstar/sim/schedulers.hpp"
#include "djstar/sim/sim_graph.hpp"
#include "djstar/support/cost_table.hpp"

namespace djstar::sim {

/// Per-operation costs in microseconds. Defaults come from the single
/// calibrated table in support/cost_table.hpp (bench/micro_primitives
/// measurements on commodity x86, exported as results/cost_table.csv);
/// all are overridable.
struct OverheadModel {
  /// Picking the next node from the queue + checking its dependencies
  /// ("the small space between node executions", paper Fig. 11).
  double dep_check_us = support::costs::kDepCheckUs;
  /// Busy-wait re-check granularity: a spinning thread notices
  /// dependency resolution within this quantum.
  double spin_quantum_us = support::costs::kSpinQuantumUs;
  /// Latency from notify to the sleeping thread running again
  /// (futex wake + scheduler dispatch).
  double wake_latency_us = support::costs::kWakeLatencyUs;
  /// Cost paid by the signalling thread per wakeup it sends.
  double signal_cost_us = support::costs::kSignalCostUs;
  /// Cost of registering as waiter + parking on the condition variable.
  double sleep_entry_us = support::costs::kSleepEntryUs;
  /// One steal probe of a victim deque.
  double steal_probe_us = support::costs::kStealProbeUs;
  /// One owner push or pop on the local deque.
  double deque_op_us = support::costs::kDequeOpUs;
  /// Master's per-source-node seeding cost at cycle start (WS only).
  double seed_cost_us = support::costs::kSeedCostUs;
  /// Cache-coherence contention: every per-node cost above is scaled by
  /// (1 + contention_per_thread * (threads - 1)). The paper's measured
  /// BUSY at 4 threads (452 us) sits 38% above its RESCON replay
  /// (327 us); this factor models that thread-count-dependent gap.
  double contention_per_thread = support::costs::kContentionPerThread;
  /// Per-cycle team dispatch cost each worker pays before its first node
  /// (generation hand-off, cache warm-up). Applies when threads > 1.
  double dispatch_us = support::costs::kDispatchUs;

  /// dep_check_us after contention scaling.
  double scaled_check(std::uint32_t threads) const {
    return dep_check_us *
           (1.0 + contention_per_thread * static_cast<double>(threads - 1));
  }
};

/// Which strategy a virtual-time simulation models.
enum class SimStrategy { kBusy, kSleep, kWorkStealing };

/// Simulate one graph iteration under `strategy` on `threads` virtual
/// cores with the given per-node durations and overheads. Deterministic.
ScheduleResult simulate_strategy(const SimGraph& g, SimStrategy strategy,
                                 std::uint32_t threads,
                                 const OverheadModel& ov = {});

/// Convenience wrappers (used by the benches).
ScheduleResult simulate_busy(const SimGraph& g, std::uint32_t threads,
                             const OverheadModel& ov = {});
ScheduleResult simulate_sleep(const SimGraph& g, std::uint32_t threads,
                              const OverheadModel& ov = {});
ScheduleResult simulate_work_stealing(const SimGraph& g,
                                      std::uint32_t threads,
                                      const OverheadModel& ov = {});

}  // namespace djstar::sim
