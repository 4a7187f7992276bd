// djstar/support/attrib.hpp
// Deadline-miss attribution: realized-critical-path reconstruction and
// blame ranking over one cycle's span timeline (DESIGN.md §14).
//
// The span ring (FlightRecorder) answers "what was every thread doing";
// this layer answers "why did the cycle take this long". Following He et
// al. ("Longer Is Shorter"), a DAG cycle's response time is governed by
// its realized critical path: the chain of kRun spans in which each step
// could not have started earlier because it was bound either by a graph
// dependency or by its worker's previous span. Walking that chain back
// from the last-finishing node partitions the makespan exactly into run
// time and classified wait gaps (steal-idle / barrier / supervisor
// overhead), so the reported path always reconciles with the measured
// cycle time — by construction, not by luck.
//
// The analyzer is layer-clean: it sees only spans plus a generic
// predecessor adjacency (node id -> predecessor node ids), so it knows
// nothing about core::CompiledGraph; engine/profiler adapts a graph into
// that shape once at setup. analyze() reuses internal scratch buffers
// and is allocation-free at steady state, making per-cycle always-on use
// affordable (bench/obs_overhead gates it below 2% of APC time).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "djstar/support/trace.hpp"

namespace djstar::support::attrib {

/// Why a critical-path step (or a slice of a worker's cycle) was not
/// making forward progress.
enum class GapKind : std::uint8_t {
  kNone,       ///< no gap (step started the instant its constraint cleared)
  kStealIdle,  ///< covered by kSteal/kSleep/kBusyWait spans: the worker
               ///< was looking for work that had not been published yet
  kBarrier,    ///< leading wait at the cycle-start barrier before the
               ///< worker's first activity
  kOverhead,   ///< uncovered gap: queue management / supervisor overhead
};

const char* to_string(GapKind k) noexcept;

/// One step of the realized critical path, in source -> sink order.
struct PathStep {
  std::int32_t node = -1;
  std::uint32_t worker = 0;
  std::int32_t steal_from = -1;  ///< victim worker when the node was stolen
  double run_begin_us = 0;
  double run_end_us = 0;
  double wait_us = 0;        ///< gap between the binding constraint
                             ///< clearing and run_begin_us
  GapKind wait_kind = GapKind::kNone;
  /// True when the binding constraint was a graph dependency (the
  /// predecessor node below); false when it was the worker's own
  /// previous span (pipeline constraint).
  bool dep_bound = false;
  std::int32_t pred_node = -1;  ///< binding predecessor when dep_bound

  double run_us() const noexcept { return run_end_us - run_begin_us; }
};

/// Where one worker's share of the makespan went.
struct WorkerBucket {
  double run_us = 0;         ///< executing nodes
  double steal_idle_us = 0;  ///< kSteal + kSleep + kBusyWait
  double barrier_us = 0;     ///< after its last span, waiting for stragglers
  double overhead_us = 0;    ///< residual: queue management / supervisor
  std::uint32_t runs = 0;    ///< kRun spans executed
  std::uint32_t steals = 0;  ///< kRun spans that were stolen (steal_from >= 0)
};

/// The full attribution of one cycle. cp_run_us + cp_wait_us equals
/// makespan_us exactly (the path partitions the timeline).
struct CycleAttribution {
  std::uint64_t cycle = 0;
  double makespan_us = 0;  ///< end of the last-finishing kRun span
  double cp_run_us = 0;    ///< time the critical path spent executing
  double cp_wait_us = 0;   ///< time the critical path spent waiting
  double cp_steal_idle_us = 0;  ///< cp_wait_us classified kStealIdle
  double cp_barrier_us = 0;     ///< cp_wait_us classified kBarrier
  double cp_overhead_us = 0;    ///< cp_wait_us classified kOverhead
  std::vector<PathStep> path;   ///< source -> sink
  std::vector<WorkerBucket> workers;

  double total_run_us() const noexcept;
  bool empty() const noexcept { return path.empty(); }
};

/// Reconstructs the realized critical path of one cycle from its kRun
/// spans. Reusable: analyze() keeps all scratch storage between calls.
class CriticalPathAnalyzer {
 public:
  /// `preds[n]` lists the graph predecessors of node n. Nodes outside
  /// [0, preds.size()) never bind a dependency constraint.
  explicit CriticalPathAnalyzer(std::vector<std::vector<std::int32_t>> preds);

  /// Analyze one cycle's spans (times relative to the cycle start,
  /// sorted by (thread, begin) as collect()/collect_cycle() produce).
  /// Non-kRun spans only inform gap classification. Allocation-free
  /// once scratch buffers have grown to the workload's size.
  const CycleAttribution& analyze(std::span<const TraceSpan> spans,
                                  std::uint64_t cycle = 0);

  const CycleAttribution& result() const noexcept { return result_; }
  std::size_t node_count() const noexcept { return preds_.size(); }

 private:
  std::vector<std::vector<std::int32_t>> preds_;
  CycleAttribution result_;
  // Scratch (sized on first analyze, reused after):
  std::vector<std::int32_t> node_span_;    // node -> index into spans, -1
  std::vector<std::int32_t> prev_on_lane_; // span index -> previous kRun
                                           // span index on same worker
  std::vector<std::uint32_t> lane_begin_;  // worker -> first span index
  std::vector<std::uint32_t> lane_end_;    // worker -> one-past-last index
  std::vector<std::int32_t> last_run_;     // worker -> latest kRun span seen
};

/// One ranked blame entry: how far a node ran over its EWMA baseline.
struct BlameEntry {
  std::int32_t node = -1;
  std::int32_t worker = -1;
  double actual_us = 0;
  double baseline_us = 0;  ///< EWMA of healthy (non-missed) cycles
  double delta_us = 0;     ///< actual - baseline, the ranking key
  bool on_path = false;    ///< node sat on the realized critical path
};

/// One ranked worker entry: non-run (wait + overhead) time vs baseline.
struct WorkerBlame {
  std::uint32_t worker = 0;
  double nonrun_us = 0;
  double baseline_us = 0;
  double delta_us = 0;
};

/// Ranked blame for one missed cycle.
struct BlameReport {
  bool valid = false;
  std::uint64_t cycle = 0;
  double makespan_us = 0;
  double deadline_us = 0;
  double cp_run_us = 0;
  double cp_wait_us = 0;
  std::vector<BlameEntry> nodes;     ///< top-k, descending delta
  std::vector<WorkerBlame> workers;  ///< top-k, descending delta
};

/// Maintains per-node and per-worker EWMA baselines across cycles and
/// produces a ranked BlameReport on every missed cycle. Baselines fold
/// in healthy cycles only, so a repeating stall cannot normalize itself
/// into its own baseline; a node never seen healthy has baseline 0 and
/// is blamed for its full actual cost. Single-threaded (the cycle
/// driver's between-cycles context).
class BlameTracker {
 public:
  explicit BlameTracker(std::size_t top_k = 5, double alpha = 0.1);

  /// Fold one analyzed cycle in (`spans` = the same spans `at` was
  /// computed from, for per-node actual costs). When `missed`, last()
  /// is rebuilt and reports() increments; otherwise baselines absorb
  /// the cycle. Missed cycles never update baselines, by design.
  const BlameReport& on_cycle(const CycleAttribution& at,
                              std::span<const TraceSpan> spans, bool missed,
                              double deadline_us);

  const BlameReport& last() const noexcept { return last_; }
  std::uint64_t reports() const noexcept { return reports_; }
  /// Current EWMA baseline for `node` (0 when never seen healthy).
  double node_baseline_us(std::int32_t node) const noexcept;
  std::size_t top_k() const noexcept { return top_k_; }

 private:
  std::size_t top_k_;
  double alpha_;
  std::vector<double> node_ewma_;
  std::vector<bool> node_seen_;
  std::vector<double> worker_ewma_;
  std::vector<bool> worker_seen_;
  BlameReport last_;
  std::uint64_t reports_ = 0;
  // Scratch for ranking:
  std::vector<BlameEntry> cand_;
  std::vector<WorkerBlame> wcand_;
  std::vector<double> actual_;          // node -> this cycle's run us
  std::vector<std::int32_t> actual_worker_;
  std::vector<std::int32_t> touched_;   // nodes with actual_ set
};

/// Render an attribution as a JSON object (critical path, per-worker
/// buckets, totals). Appends to `out`.
void append_json(std::string& out, const CycleAttribution& at);

/// Render a blame report as a JSON object. Appends to `out`.
void append_json(std::string& out, const BlameReport& r);

}  // namespace djstar::support::attrib
