// djstar/core/compiled_graph.hpp
// Immutable, executor-ready form of a TaskGraph: flat arrays (CSR
// adjacency), the levelized node queue, and the per-cycle node state
// (dependency counter, sleep waiter, claim) that every scheduling
// strategy shares. The executors schedule these nodes directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "djstar/core/fault.hpp"
#include "djstar/core/graph.hpp"
#include "djstar/support/journal.hpp"

namespace djstar::core {

/// How the executor-facing node queue is ordered. Both options are
/// dependency-safe for round-robin assignment (every predecessor appears
/// earlier); DJ Star uses the levelized order (paper §IV), and the
/// difference is measured in bench/ablation_queue_order.
enum class QueueOrder {
  kLevelized,    ///< sorted by dependency depth (the paper's queue)
  kTopological,  ///< plain Kahn order (insertion-order tie-breaking)
};

/// Compiled task graph. Construction validates acyclicity and snapshots
/// structure; begin_cycle() resets the dependency counters so executors
/// can run the graph repeatedly without touching the structure.
///
/// Thread safety: all const accessors are safe concurrently; the atomic
/// cycle state (`pending`, `waiter`, the claim) is operated on by the
/// worker loop under the protocol described in loop_executor.cpp.
class CompiledGraph {
 public:
  /// Compiles `g`. Asserts that the graph is acyclic and every node has
  /// a work function. The nodes in `always_run` run their work in every
  /// cycle (see always_runs()).
  explicit CompiledGraph(const TaskGraph& g,
                         QueueOrder order = QueueOrder::kLevelized,
                         std::span<const NodeId> always_run = {});

  CompiledGraph(const CompiledGraph&) = delete;
  CompiledGraph& operator=(const CompiledGraph&) = delete;

  std::size_t node_count() const noexcept { return names_.size(); }

  const std::string& name(NodeId n) const noexcept { return names_[n]; }
  const std::string& section(NodeId n) const noexcept { return sections_[n]; }
  const WorkFn& work(NodeId n) const noexcept { return works_[n]; }

  std::span<const NodeId> successors(NodeId n) const noexcept {
    return {succ_list_.data() + succ_off_[n], succ_off_[n + 1] - succ_off_[n]};
  }
  std::uint32_t in_degree(NodeId n) const noexcept { return indeg_[n]; }
  std::uint32_t depth(NodeId n) const noexcept { return depth_[n]; }
  std::uint32_t max_depth() const noexcept { return max_depth_; }

  /// The dependency-sorted FIFO queue the paper's strategies consume.
  std::span<const NodeId> order() const noexcept { return order_; }

  /// Source nodes grouped as they appear in order() (all depth-0 first).
  std::span<const NodeId> sources() const noexcept {
    return {order_.data(), source_count_};
  }

  /// Distinct section labels in first-appearance order.
  std::span<const std::string> section_labels() const noexcept {
    return section_labels_;
  }
  /// Index of node `n`'s section within section_labels().
  std::uint32_t section_index(NodeId n) const noexcept {
    return section_idx_[n];
  }

  /// Node `n` runs its work in every cycle: no mask, armed fault or
  /// drain skips it (the engine's deck jobs, so every deck advances once
  /// per cycle). Fixed at construction.
  bool always_runs(NodeId n) const noexcept { return always_run_[n] != 0; }

  // ---- node execution (fault-tolerant path) ----

  /// Execute node `n` for this cycle: honours the skip mask (runs the
  /// bypass form instead, if any), the cancel flag (drains without
  /// running work), and the armed fault plan, none of which touch an
  /// always_runs() node; catches anything the work function throws and
  /// records it as a cycle fault. Every executor routes node execution
  /// through here, which is what makes all of them exception-safe — no
  /// exception ever crosses executor synchronization code, dependency
  /// counters keep resolving, waiters keep waking, and the executor
  /// stays reusable.
  void execute(NodeId n) noexcept;

  // ---- fault injection ----

  /// Arm `plan`; faults fire deterministically per (seed, cycle, node),
  /// on every node but the always_runs() ones. Must not be called
  /// concurrently with an executing cycle.
  void arm_faults(const chaos::FaultPlan& plan);
  void disarm_faults() noexcept { faults_armed_ = false; }
  bool faults_armed() const noexcept { return faults_armed_; }

  /// True when the armed plan can produce worker faults (kStallForever /
  /// kWorkerAbort). Gates the healing team's per-node pre-execution check.
  bool worker_faults_armed() const noexcept {
    return faults_armed_ && worker_faults_possible_;
  }

  /// Resolve-and-consume the worker fault for node `n` this cycle: when
  /// its decision is a worker kind, wins a one-shot CAS so exactly one
  /// caller per cycle receives the kind (everyone else gets kNone —
  /// re-decisions after a quarantine adoption see the consumed flag).
  /// Counts into faults_injected() and journals like any node fault.
  /// Called by the worker loop of a healing team before running a
  /// claimed node; execute() consults the same one-shot flag, so a kind
  /// consumed here never fires again inside the node's body.
  chaos::FaultKind take_worker_fault(NodeId n) noexcept;

  /// Hook invoked when a kNanOutput fault fires on node `n` (the graph
  /// owner decides what "corrupted audio" means). Called from worker
  /// threads; must be thread-safe. May be null.
  void set_poison_hook(std::function<void(NodeId)> hook) {
    poison_ = std::move(hook);
  }

  /// Structured event journal to receive a kFaultInjected event (a=node,
  /// b=FaultKind) for every fault that fires. Push is lock-free, so this
  /// is safe from worker threads mid-cycle. May be null; the journal must
  /// outlive the graph or be detached first. Set only between cycles.
  void set_journal(support::EventJournal* journal) noexcept {
    journal_ = journal;
  }

  // ---- degradation: skip masks & bypass forms ----

  /// Mask/unmask node `n`. Masked nodes run their bypass form (or
  /// nothing) instead of their work. Call only between cycles; the
  /// executors' cycle-start synchronization publishes the change.
  void set_node_masked(NodeId n, bool masked) noexcept {
    masked_[n] = masked ? 1 : 0;
  }
  bool node_masked(NodeId n) const noexcept { return masked_[n] != 0; }

  /// Cheap replacement work for a masked node (e.g. copy-through for a
  /// bypassed effect). Call only between cycles.
  void set_bypass(NodeId n, WorkFn fn) { bypass_[n] = std::move(fn); }

  // ---- cancellation & cycle outcome ----

  /// Request the in-flight cycle to drain: remaining nodes skip their
  /// work but still resolve dependencies, so every executor finishes
  /// promptly without deadlocking. Safe from any thread (this is the
  /// watchdog's lever).
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
    abort_cycle_.store(true, std::memory_order_release);
  }
  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True when this cycle saw a node fault or a cancel request. Stable
  /// once the cycle has completed; reset by begin_cycle().
  bool cycle_failed() const noexcept {
    return abort_cycle_.load(std::memory_order_acquire);
  }
  /// Node whose exception failed the cycle (-1: none / cancel only).
  std::int32_t fault_node() const noexcept {
    return fault_node_.load(std::memory_order_acquire);
  }
  /// what() of the recorded fault (empty when fault_node() is -1). Read
  /// only between cycles.
  const char* fault_message() const noexcept { return fault_what_; }

  /// Monotonic cycle counter (drives deterministic fault decisions).
  std::uint64_t cycle_index() const noexcept { return cycle_index_; }
  /// Nodes whose real work did not run this cycle (masked or drained).
  std::uint64_t skipped_this_cycle() const noexcept {
    return skipped_.load(std::memory_order_relaxed);
  }
  /// Masked nodes whose bypass form ran this cycle (subset of skipped).
  std::uint64_t bypassed_this_cycle() const noexcept {
    return bypassed_.load(std::memory_order_relaxed);
  }
  /// Faults injected since construction (all kinds, cumulative).
  std::uint64_t faults_injected() const noexcept {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  // ---- per-cycle state shared by all executors ----

  /// Reset dependency counters, waiter slots, claims, and the
  /// fault/cancel state for a new cycle. Must not run concurrently with
  /// an executing cycle; the stores are relaxed, and the Team's
  /// generation bump publishes them to the workers.
  void begin_cycle() noexcept;

  /// Remaining unfinished predecessors of `n` this cycle.
  std::atomic<std::int32_t>& pending(NodeId n) noexcept {
    return cycle_[n].pending;
  }
  /// Worker registered to be woken when `n` becomes ready (-1 = none).
  /// Used by the thread-sleeping strategy only.
  std::atomic<std::int32_t>& waiter(NodeId n) noexcept {
    return cycle_[n].waiter;
  }

  // ---- node claims (the worker loop, DESIGN.md §12) ----
  //
  // The worker loop gates every node execution behind a CAS on the
  // node's claim flag (0 free -> 1 running -> 2 done). A node that
  // reaches two workers — a node adopted from an absent owner that
  // joins late, an adopted node still queued in a lane, ring or deque —
  // still runs exactly once: the claim loser just moves on, and only the
  // winner resolves successors. nodes_done() is the cycle-completion
  // condition worker 0 closes the team's cycle on (it also advances on
  // drained cycles, so cancellation still terminates every worker).

  /// Claim node `n` for execution. One winner per cycle.
  bool try_claim(NodeId n) noexcept {
    std::uint8_t expected = 0;
    return cycle_[n].claim.compare_exchange_strong(expected, 1,
                                                   std::memory_order_acq_rel);
  }
  /// Return a claim without running (the claimer took a worker fault).
  void release_claim(NodeId n) noexcept {
    cycle_[n].claim.store(0, std::memory_order_release);
  }
  /// Mark a claimed node executed and count it toward nodes_done().
  void mark_done(NodeId n) noexcept {
    cycle_[n].claim.store(2, std::memory_order_release);
    nodes_done_.fetch_add(1, std::memory_order_acq_rel);
  }
  bool claimed(NodeId n) noexcept {
    return cycle_[n].claim.load(std::memory_order_acquire) != 0;
  }
  /// Nodes marked done this cycle.
  std::size_t nodes_done() const noexcept {
    return nodes_done_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) CycleState {  // one cache line per node: the pending
    std::atomic<std::int32_t> pending{0};  // counters are the hot shared data
    std::atomic<std::int32_t> waiter{-1};
    // One-shot consumption flag for worker-fault decisions
    // (take_worker_fault vs execute).
    std::atomic<std::uint8_t> wfault{0};
    std::atomic<std::uint8_t> claim{0};  // 0 free, 1 running, 2 done
  };

  std::vector<std::string> names_;
  std::vector<std::string> sections_;
  std::vector<WorkFn> works_;
  std::vector<std::uint32_t> indeg_;
  std::vector<std::uint32_t> depth_;
  std::vector<std::size_t> succ_off_;
  std::vector<NodeId> succ_list_;
  std::vector<NodeId> order_;
  std::size_t source_count_ = 0;
  std::uint32_t max_depth_ = 0;
  std::vector<std::string> section_labels_;
  std::vector<std::uint32_t> section_idx_;
  std::vector<std::uint8_t> always_run_;
  std::unique_ptr<CycleState[]> cycle_;

  void record_fault(NodeId n, const char* what) noexcept;

  // Degradation / fault state. masked_/bypass_/fault_eligible_ and the
  // plan are mutated only between cycles (published by the executors'
  // cycle-start synchronization); the atomics below are the only fields
  // workers write during a cycle.
  std::vector<std::uint8_t> masked_;
  std::vector<WorkFn> bypass_;
  std::function<void(NodeId)> poison_;
  support::EventJournal* journal_ = nullptr;
  chaos::FaultPlan fault_plan_;
  std::vector<std::uint8_t> fault_eligible_;
  bool faults_armed_ = false;
  bool worker_faults_possible_ = false;
  std::atomic<std::size_t> nodes_done_{0};
  std::uint64_t cycle_index_ = 0;
  std::atomic<bool> abort_cycle_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int32_t> fault_node_{-1};
  char fault_what_[128] = {};  // written once per cycle by the CAS winner
  std::atomic<std::uint64_t> skipped_{0};
  std::atomic<std::uint64_t> bypassed_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
};

}  // namespace djstar::core
