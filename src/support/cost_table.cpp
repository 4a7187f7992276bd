#include "djstar/support/cost_table.hpp"

#include "djstar/support/csv.hpp"

namespace djstar::support::costs {

namespace {
constexpr CostRow kRows[] = {
    {"dep_check_us", kDepCheckUs, "BM_AtomicDependencyCheck"},
    {"spin_quantum_us", kSpinQuantumUs, "BM_SpinQuantum"},
    {"wake_latency_us", kWakeLatencyUs, "BM_CondvarWakeRoundTrip"},
    {"signal_cost_us", kSignalCostUs, "BM_CondvarWakeRoundTrip"},
    {"sleep_entry_us", kSleepEntryUs, "BM_CondvarWakeRoundTrip"},
    {"steal_probe_us", kStealProbeUs, "BM_DequeStealUncontended"},
    {"deque_op_us", kDequeOpUs, "BM_DequePushPop"},
    {"seed_cost_us", kSeedCostUs, "BM_DequePushPop"},
    {"contention_per_thread", kContentionPerThread,
     "paper §VI BUSY-vs-RESCON gap"},
    {"dispatch_us", kDispatchUs, "BM_TeamCycleOverhead_cold"},
    {"per_node_dispatch_us", kPerNodeDispatchUs, "dep_check + deque_op"},
};
}  // namespace

std::span<const CostRow> rows() noexcept { return kRows; }

bool write_cost_table_csv(const std::string& path) {
  CsvWriter csv;
  csv.cells("op", "us", "source");
  for (const auto& r : rows()) csv.cells(r.op, r.us, r.source);
  return csv.save(path);
}

}  // namespace djstar::support::costs
