// djstar/core/health.hpp
// Worker-level self-healing: heartbeat board, quarantine states, and the
// strict DJSTAR_HEAL grammar (DESIGN.md §12).
//
// core/fault injects faults into *nodes*; this layer handles faults in
// the *workers themselves* — a thread wedged in a blocking syscall
// (FaultKind::kStallForever) or killed outright (kWorkerAbort) would
// otherwise keep worker 0 waiting for it forever and stall every cycle. The
// pieces:
//
//  - HealthBoard: one cache-line slot per worker holding a wait-free
//    heartbeat counter (relaxed increment from each strategy's inner
//    loop), a lifecycle state (kActive -> kFinished | kAborted ->
//    kQuarantined), and an "exited" flag the Team uses to join retired
//    threads at a cycle boundary.
//  - The Team's medic thread (team.cpp) scans the board mid-cycle; a
//    joined worker whose heartbeat stops longer than the budget is
//    quarantined: the survivors adopt every ready node it left unclaimed
//    (the worker loop's adoption path, deduplicated by the graph's node
//    claims) and its done slot is credited so the cycle completes on
//    N-1 workers.
//  - With HealMode::kRespawn the Team joins the dead thread and spawns a
//    replacement at the next cycle boundary; kQuarantine leaves the team
//    permanently one worker down (still correct — survivors adopt the
//    dead worker's share every cycle).
//
// Exactly-once under quarantine relies on CompiledGraph's node claims
// (compiled_graph.hpp): every execution is gated by a CAS on the node's
// claim flag, so a node that reaches two workers (a false positive
// quarantine, an adopted node still queued elsewhere) still runs once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "djstar/core/fault.hpp"

namespace djstar::core {

/// What the Team does about a worker that stopped making progress.
enum class HealMode : std::uint8_t {
  kOff = 0,     ///< no medic; a wedged worker stalls the team (pre-PR behavior)
  kQuarantine,  ///< quarantine + redistribute; run on N-1 workers forever
  kRespawn,     ///< quarantine + redistribute + respawn at a cycle boundary
};

const char* to_string(HealMode m) noexcept;

/// Parse "off" | "quarantine" | "respawn" (exact match). Throws
/// std::invalid_argument on anything else, quoting the input — same
/// strictness contract as core/thread_count.
HealMode parse_heal_mode(std::string_view text);

/// Team self-healing configuration (ExecOptions::heal / EngineConfig /
/// serve::HostConfig carry one of these down to the Team).
struct TeamHealConfig {
  HealMode mode = HealMode::kOff;
  /// Quarantine a worker whose heartbeat has been silent this long while
  /// a cycle is in flight. Generous vs the 2.9 ms deadline by default:
  /// a healthy-but-slow worker keeps beating, so only a genuinely wedged
  /// or dead thread goes silent.
  double heartbeat_budget_us = 2000.0;
  /// Medic scan period.
  double check_interval_us = 100.0;

  bool enabled() const noexcept { return mode != HealMode::kOff; }
};

/// Lifecycle of one worker slot within a cycle.
///
///   kFinished -> kActive              (helper: joins a cycle)
///   kActive ---> kFinished            (worker: normal end of body)
///   kActive ---> kAborted             (worker: kWorkerAbort fault)
///   kActive/kAborted -> kQuarantined  (medic only)
///   kQuarantined -> kFinished         (team maintenance, respawn)
///
/// A helper that has not joined the cycle in flight stays kFinished, so
/// the medic never judges or credits it.
///
/// The kActive->kFinished vs kActive->kQuarantined CAS race is the
/// done-credit arbitration: whichever side wins the transition owns the
/// worker's done credit, so it is counted exactly once.
enum class WorkerState : std::uint32_t {
  kActive = 0,
  kFinished,
  kAborted,
  kQuarantined,
};

const char* to_string(WorkerState s) noexcept;

/// Cumulative healing counters (Team::heal_stats()).
struct HealStats {
  std::uint64_t quarantines = 0;    ///< workers quarantined by the medic
  std::uint64_t respawns = 0;       ///< replacement threads spawned
  std::uint64_t rescues = 0;        ///< nodes adopted from dead workers
  std::uint64_t worker_faults = 0;  ///< kStallForever/kWorkerAbort fired
  unsigned live = 0;                ///< workers currently not quarantined
  unsigned threads = 0;             ///< configured team width
};

/// Per-worker heartbeat and lifecycle slots. All operations are wait-free
/// (single atomic op); slots are cache-line separated so the per-node
/// heartbeat from N workers never false-shares.
class HealthBoard {
 public:
  HealthBoard() = default;

  /// Size the board. Not thread-safe; call before workers start.
  void configure(unsigned width);
  unsigned width() const noexcept { return width_; }

  /// Heartbeat from worker `w`'s inner loop. Wait-free, relaxed.
  void beat(unsigned w) noexcept {
    slots_[w].beats.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t beats(unsigned w) const noexcept {
    return slots_[w].beats.load(std::memory_order_relaxed);
  }

  WorkerState state(unsigned w) const noexcept {
    return static_cast<WorkerState>(
        slots_[w].state.load(std::memory_order_acquire));
  }
  void set_state(unsigned w, WorkerState s) noexcept {
    slots_[w].state.store(static_cast<std::uint32_t>(s),
                          std::memory_order_release);
  }
  /// CAS `from` -> `to`; the arbitration primitive for done credits.
  bool try_transition(unsigned w, WorkerState from, WorkerState to) noexcept {
    auto expected = static_cast<std::uint32_t>(from);
    return slots_[w].state.compare_exchange_strong(
        expected, static_cast<std::uint32_t>(to), std::memory_order_acq_rel);
  }

  /// Set by a retiring worker thread as its very last act; the Team joins
  /// the thread (and respawns, in kRespawn mode) only after seeing it.
  void mark_exited(unsigned w) noexcept {
    slots_[w].exited.store(true, std::memory_order_release);
  }
  bool exited(unsigned w) const noexcept {
    return slots_[w].exited.load(std::memory_order_acquire);
  }
  void clear_exited(unsigned w) noexcept {
    slots_[w].exited.store(false, std::memory_order_relaxed);
  }

  /// Number of currently quarantined workers (maintained by the medic /
  /// team maintenance, read by the worker loop's adoption scan).
  unsigned dead() const noexcept {
    return dead_.load(std::memory_order_acquire);
  }
  void add_dead(int delta) noexcept {
    dead_.fetch_add(static_cast<unsigned>(delta), std::memory_order_acq_rel);
  }

  /// Nodes survivors adopted while a worker was quarantined.
  void note_rescued(std::uint64_t n) noexcept {
    rescued_nodes_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t rescued_nodes() const noexcept {
    return rescued_nodes_.load(std::memory_order_relaxed);
  }
  /// Worker faults that actually fired on a bound thread.
  std::uint64_t worker_faults() const noexcept {
    return worker_faults_.load(std::memory_order_relaxed);
  }

  // ---- thread-local worker binding ----
  //
  // CompiledGraph hands worker faults (kStallForever / kWorkerAbort) to
  // the executor layer via these statics: the Team binds each worker
  // thread to its board slot, and on_worker_fault() applied to the
  // calling thread either wedges it (stall-forever: no heartbeats until
  // the medic quarantines it or the team stops) or marks it aborted.
  // Afterwards abandoned() is true and the strategy body must return
  // without crediting its done slot.

  /// Bind the calling thread to slot `w`. `stop` is the team's stop flag
  /// (lets a wedged thread exit at shutdown so it stays joinable).
  static void bind(HealthBoard* board, unsigned w,
                   const std::atomic<bool>* stop) noexcept;
  static void unbind() noexcept;

  /// True after on_worker_fault() retired the calling thread's cycle.
  static bool abandoned() noexcept;
  static void clear_abandoned() noexcept;

  /// Apply worker fault `k` to the calling thread. No-op for unbound
  /// threads and for worker 0 (the caller thread cannot be replaced; its
  /// faults are consumed and ignored — documented in DESIGN.md §12).
  static void on_worker_fault(chaos::FaultKind k) noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> beats{0};
    std::atomic<std::uint32_t> state{0};  // WorkerState
    std::atomic<bool> exited{false};
  };

  std::unique_ptr<Slot[]> slots_;
  unsigned width_ = 0;
  std::atomic<unsigned> dead_{0};
  std::atomic<std::uint64_t> rescued_nodes_{0};
  std::atomic<std::uint64_t> worker_faults_{0};
};

}  // namespace djstar::core
