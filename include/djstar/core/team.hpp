// djstar/core/team.hpp
// Persistent worker team shared by the parallel executors.
//
// Workers are created once (CP.41) and park between cycles. run_cycle()
// opens a cycle and runs the body on the caller as worker 0; a helper
// runs it too if it joins while the cycle is open, with one CAS on the
// cycle's roster. Worker 0 closes the cycle when its body returns (the
// executors' bodies return once every node is done) and then waits only
// for the helpers that joined, so a helper's late wake never lands in
// the cycle. A helper that wakes into a closed cycle parks again and
// touches no cycle state. `threads == n` means n computing threads,
// matching the paper's "thread count" axis in Table I; how many of them
// a cycle gets depends on who is awake (DESIGN.md §5).
//
// The dispatch is the only wake: opening a cycle notifies the parked
// helpers. The engine dispatches at APC entry with its decks' TP and GP
// as graph nodes (engine/djstar_graph.hpp), so worker 0 starts on them
// while the helpers wake (DESIGN.md §5).
//
// Two ownership modes:
//  - owned body: the classic executor shape — one WorkerFn bound at
//    construction, run with run_cycle().
//  - external submission: a team constructed without a body accepts a
//    different WorkerFn per cycle via run_cycle(fn). This is what lets
//    the serve layer multiplex many independent graphs (one hosted
//    executor each) over a single shared worker pool: the roster store
//    that opens the cycle publishes the submitted body to the workers
//    (release/acquire), so no extra synchronization is needed.
//
// Schedule fuzzing: each helper passes a chaos::maybe_perturb() site
// (kCycleStart) between observing the new cycle and joining it, so the
// stress suite makes helpers miss cycles.
//
// Self-healing (DESIGN.md §12): a team built with a TeamHealConfig whose
// mode is not kOff runs a medic thread that scans the HealthBoard while
// a cycle is in flight. It judges joined helpers only; one whose
// heartbeat goes silent past the budget is quarantined: the survivors
// adopt the ready nodes it left unclaimed (the executors' worker loop
// adopts from every absent owner, quarantined or not joined), and the
// medic credits the worker's done slot so dispatch_cycle() still
// returns. The credit is arbitrated by a CAS on the worker's state
// (kActive -> kFinished by the worker itself vs kActive/kAborted ->
// kQuarantined by the medic), so a slot is counted exactly once even
// when a quarantine races a late finish. A falsely-quarantined worker is
// safe: every node runs behind a claim CAS (exactly-once regardless),
// and the worker retires itself at its next cycle boundary. In kRespawn
// mode the team joins retired threads and spawns replacements between
// cycles, seeding them with the current generation so they join the
// next cycle at the earliest.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "djstar/core/executor.hpp"
#include "djstar/core/health.hpp"

namespace djstar::core {

/// Fixed team of joining threads executing one callback per cycle.
class Team {
 public:
  /// The per-cycle body; `worker` in [0, threads).
  using WorkerFn = std::function<void(unsigned worker)>;

  /// Spawns `threads - 1` OS threads (thread 0 is the caller).
  Team(unsigned threads, WorkerFn fn, TeamHealConfig heal = {});

  /// External-submission team: no owned body; every cycle's body is
  /// passed to run_cycle(fn). Used by serve::EngineHost to share one
  /// worker pool between many hosted executors.
  explicit Team(unsigned threads, TeamHealConfig heal = {});

  /// Requests stop and joins all workers.
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Run one cycle: the caller runs the body as worker 0, and so does
  /// every helper that joins before worker 0's body returns; returns
  /// when all of them are done. Requires the owned-body mode.
  void run_cycle();

  /// Run one cycle with an externally submitted body. `fn` must stay
  /// alive until this call returns (it does: the call blocks until every
  /// joined worker has finished). Callable in either mode; the owned
  /// body, if any, is restored afterwards.
  void run_cycle(const WorkerFn& fn);

  unsigned threads() const noexcept { return threads_; }

  /// Worker `w` takes part in the cycle in flight: it joined and is not
  /// quarantined. Worker 0 always does. Callable from worker bodies.
  bool present(unsigned w) const noexcept;
  /// Every worker is present().
  bool full() const noexcept;

  /// OS thread id (gettid) of worker `w`; 0 when that worker has not
  /// started yet (or on platforms without gettid). Worker 0 is the
  /// caller of run_cycle(): its tid is recorded at construction, which
  /// normally is the same thread. A respawned replacement overwrites
  /// its slot when it starts. Used by engine/profiler to attach
  /// perf_event counters to the team.
  std::int32_t worker_tid(unsigned w) const noexcept;

  // ---- self-healing ----

  /// True when a medic is running (mode != kOff and threads > 1; a
  /// one-thread team is just the caller, which cannot be quarantined).
  bool healing() const noexcept {
    return heal_.enabled() && threads_ > 1;
  }
  const TeamHealConfig& heal_config() const noexcept { return heal_; }
  HealthBoard& health() noexcept { return health_; }
  const HealthBoard& health() const noexcept { return health_; }

  /// Workers currently not quarantined (== threads() while healthy).
  unsigned live_threads() const noexcept {
    return healing() ? threads_ - health_.dead() : threads_;
  }
  /// Cumulative healing counters. Callable between cycles.
  HealStats heal_stats() const noexcept;

  /// Exceptions that escaped a worker body and were swallowed by the
  /// team's last-resort net. Always zero in a correct build — strategy
  /// bodies route node work through CompiledGraph::execute(), which is
  /// noexcept — but the net keeps a bug from killing a worker thread
  /// (std::terminate) and deadlocking every later cycle.
  std::uint64_t body_errors() const noexcept {
    return body_errors_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main(unsigned id, std::uint64_t seen);
  bool await_cycle(std::uint64_t seen);
  bool join(std::uint64_t gen) noexcept;
  std::uint64_t generation() const noexcept;
  void run_body(unsigned id) noexcept;
  void dispatch_cycle();
  void spawn_workers();
  // Medic machinery (healing teams only).
  void medic_main();
  void medic_scan(std::vector<std::uint64_t>& last_beats,
                  std::vector<double>& last_progress_us,
                  std::uint64_t& seen_generation);
  void quarantine(unsigned w);
  void heal_maintenance();
  void await_retirements();

  unsigned threads_;
  WorkerFn fn_;
  // Body for the cycle in flight: &fn_ (owned mode) or the caller's
  // submitted body. Written by the dispatching thread before the roster
  // store that opens the cycle (release) and read by helpers after their
  // acquire load of the roster, so no separate atomic is needed.
  const WorkerFn* active_ = nullptr;

  // The cycle's roster: generation << kGenShift | open bit | the number
  // of helpers that joined (team.cpp).
  alignas(64) std::atomic<std::uint64_t> roster_{0};
  alignas(64) std::atomic<unsigned> done_{0};  // joined helpers finished
  std::atomic<unsigned> parked_{0};            // helpers inside the park
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> body_errors_{0};

  std::mutex park_mutex_;
  std::condition_variable park_cv_;

  std::vector<std::thread> workers_;
  // Per worker: its OS thread id (see worker_tid()) and the last
  // generation it joined. unique_ptr array because atomics are not
  // movable; one cache line each, since adopters read `joined` while
  // helpers join.
  struct alignas(64) Seat {
    std::atomic<std::int32_t> tid{0};
    std::atomic<std::uint64_t> joined{0};
  };
  std::unique_ptr<Seat[]> seats_;

  // ---- self-healing state ----
  TeamHealConfig heal_{};
  HealthBoard health_;
  // True between opening the cycle and the return of dispatch_cycle();
  // the medic only quarantines mid-cycle (between cycles a silent worker
  // is just parked).
  std::atomic<bool> in_cycle_{false};
  // Cycle arm time (steady_clock ns) for heartbeat-budget arithmetic.
  std::atomic<std::int64_t> cycle_armed_ns_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::thread medic_;
  std::mutex medic_mutex_;
  std::condition_variable medic_cv_;
  bool medic_stop_ = false;  // guarded by medic_mutex_
};

}  // namespace djstar::core
