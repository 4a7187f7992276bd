// djstar/support/cost_table.hpp
// The single calibrated per-operation cost table (microseconds).
//
// Calibrated from bench/micro_primitives on commodity x86 (see
// EXPERIMENTS.md). Before this table existed the constants were
// duplicated: sim::OverheadModel carried inline defaults and the benches
// restated them in comments. Now every consumer — the strategy
// simulator's OverheadModel defaults and bench/node_profile's report —
// reads the same constants, and bench/node_profile exports them as
// results/cost_table.csv so the calibration ships with the repo.
#pragma once

#include <span>
#include <string>

namespace djstar::support::costs {

/// Picking the next node from the queue + checking its dependencies
/// ("the small space between node executions", paper Fig. 11).
inline constexpr double kDepCheckUs = 0.75;
/// Busy-wait re-check granularity: a spinning thread notices dependency
/// resolution within this quantum.
inline constexpr double kSpinQuantumUs = 0.10;
/// Latency from notify to the sleeping thread running again
/// (futex wake + scheduler dispatch).
inline constexpr double kWakeLatencyUs = 12.0;
/// Cost paid by the signalling thread per wakeup it sends.
inline constexpr double kSignalCostUs = 1.0;
/// Cost of registering as waiter + parking on the condition variable.
inline constexpr double kSleepEntryUs = 2.5;
/// One steal probe of a victim deque.
inline constexpr double kStealProbeUs = 1.0;
/// One owner push or pop on the local deque.
inline constexpr double kDequeOpUs = 0.45;
/// Master's per-source-node seeding cost at cycle start (WS only).
inline constexpr double kSeedCostUs = 0.45;
/// Cache-coherence contention factor per extra thread (the measured
/// BUSY-vs-RESCON gap of the paper, §VI).
inline constexpr double kContentionPerThread = 2.2;
/// Per-cycle team dispatch cost each worker pays before its first node.
inline constexpr double kDispatchUs = 14.0;

/// Scheduling overhead attributed to dispatching ONE node through a
/// dynamic executor: a dependency check plus one ready-queue operation.
/// A node cheaper than a small multiple of this is dispatch-bound.
inline constexpr double kPerNodeDispatchUs = kDepCheckUs + kDequeOpUs;

/// One row of the exported table.
struct CostRow {
  const char* op;      ///< stable identifier (CSV `op` column)
  double us;           ///< calibrated cost in microseconds
  const char* source;  ///< which micro benchmark calibrates it
};

/// All rows, in a stable order (for printing and CSV export).
std::span<const CostRow> rows() noexcept;

/// Write the table as CSV (`op,us,source`). Returns false on I/O error.
bool write_cost_table_csv(const std::string& path);

}  // namespace djstar::support::costs
