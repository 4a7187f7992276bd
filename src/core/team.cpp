#include "djstar/core/team.hpp"

#include <chrono>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "djstar/core/chaos.hpp"
#include "djstar/core/detail/spin.hpp"
#include "djstar/core/thread_count.hpp"
#include "djstar/support/assert.hpp"

namespace djstar::core {
namespace {

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t current_tid() noexcept {
#if defined(__linux__)
  return static_cast<std::int32_t>(::syscall(SYS_gettid));
#else
  return 0;
#endif
}

// The roster word: the cycle's generation above kGenShift, the open bit,
// and the joined-helper count below it.
constexpr unsigned kCountBits = 10;
constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kCountBits) - 1;
constexpr std::uint64_t kOpen = std::uint64_t{1} << kCountBits;
constexpr unsigned kGenShift = kCountBits + 1;
static_assert(kMaxThreads - 1 <= kCountMask,
              "the roster must count every helper of the widest team");

}  // namespace

Team::Team(unsigned threads, WorkerFn fn, TeamHealConfig heal)
    : threads_(threads), fn_(std::move(fn)), heal_(heal) {
  DJSTAR_ASSERT_MSG(static_cast<bool>(fn_), "team needs a worker body");
  active_ = &fn_;
  spawn_workers();
}

Team::Team(unsigned threads, TeamHealConfig heal)
    : threads_(threads), heal_(heal) {
  spawn_workers();
}

void Team::spawn_workers() {
  DJSTAR_ASSERT_MSG(threads_ >= 1 && threads_ <= kMaxThreads,
                    "team width must be in [1, kMaxThreads]");
  if (healing()) {
    health_.configure(threads_);
    // A helper is kFinished until it joins a cycle, so the medic never
    // credits one that is not in the cycle.
    for (unsigned id = 1; id < threads_; ++id) {
      health_.set_state(id, WorkerState::kFinished);
    }
  }
  seats_ = std::make_unique<Seat[]>(threads_);
  // Worker 0 is the caller of run_cycle(), conventionally the thread
  // constructing the team.
  seats_[0].tid.store(current_tid(), std::memory_order_relaxed);
  workers_.reserve(threads_ - 1);
  for (unsigned id = 1; id < threads_; ++id) {
    workers_.emplace_back([this, id] { thread_main(id, 0); });
  }
  if (healing()) {
    medic_ = std::thread([this] { medic_main(); });
  }
}

Team::~Team() {
  // Stop the medic first: a quarantine racing the shutdown notify could
  // otherwise touch a worker slot while we are joining the thread.
  if (medic_.joinable()) {
    {
      const std::lock_guard<std::mutex> lk(medic_mutex_);
      medic_stop_ = true;
    }
    medic_cv_.notify_all();
    medic_.join();
  }
  stop_.store(true, std::memory_order_seq_cst);
  {
    const std::lock_guard<std::mutex> lk(park_mutex_);
  }
  park_cv_.notify_all();
  // Retired workers were already joined by heal_maintenance(); a thread
  // wedged by kStallForever exits its wedge loop on stop_ and returns.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

HealStats Team::heal_stats() const noexcept {
  HealStats s;
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.respawns = respawns_.load(std::memory_order_relaxed);
  s.rescues = health_.rescued_nodes();
  s.worker_faults = health_.worker_faults();
  s.live = live_threads();
  s.threads = threads_;
  return s;
}

std::uint64_t Team::generation() const noexcept {
  return roster_.load(std::memory_order_seq_cst) >> kGenShift;
}

bool Team::present(unsigned w) const noexcept {
  if (w == 0) return true;
  if (seats_[w].joined.load(std::memory_order_acquire) != generation()) {
    return false;
  }
  return !healing() || health_.state(w) != WorkerState::kQuarantined;
}

bool Team::full() const noexcept {
  const std::uint64_t r = roster_.load(std::memory_order_acquire);
  return (r & kCountMask) == threads_ - 1 &&
         (!healing() || health_.dead() == 0);
}

bool Team::await_cycle(std::uint64_t seen) {
  std::unique_lock<std::mutex> lk(park_mutex_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  park_cv_.wait(lk, [&] {
    return generation() != seen || stop_.load(std::memory_order_seq_cst);
  });
  parked_.fetch_sub(1, std::memory_order_relaxed);
  return !stop_.load(std::memory_order_acquire);
}

bool Team::join(std::uint64_t gen) noexcept {
  std::uint64_t r = roster_.load(std::memory_order_acquire);
  do {
    if ((r >> kGenShift) != gen || (r & kOpen) == 0) return false;
  } while (!roster_.compare_exchange_weak(r, r + 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
  return true;
}

void Team::run_body(unsigned id) noexcept {
  // Last-resort net: a worker body must not throw (node exceptions are
  // contained by CompiledGraph::execute), but if one ever does, counting
  // it beats std::terminate taking the whole process down.
  try {
    (*active_)(id);
  } catch (...) {
    body_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::int32_t Team::worker_tid(unsigned w) const noexcept {
  return w < threads_ ? seats_[w].tid.load(std::memory_order_relaxed) : 0;
}

void Team::thread_main(unsigned id, std::uint64_t seen) {
  seats_[id].tid.store(current_tid(), std::memory_order_relaxed);
  const bool heal = healing();
  if (heal) HealthBoard::bind(&health_, id, &stop_);
  for (;;) {
    if (!await_cycle(seen)) return;
    seen = generation();
    chaos::maybe_perturb(chaos::Site::kCycleStart);
    if (!join(seen)) continue;  // closed before we came: park again
    seats_[id].joined.store(seen, std::memory_order_release);
    if (heal) {
      // kFinished -> kActive: only this thread leaves kFinished, and the
      // medic judges kActive slots only.
      health_.set_state(id, WorkerState::kActive);
      HealthBoard::clear_abandoned();
      health_.beat(id);
    }
    run_body(id);
    if (heal) {
      // kActive -> kFinished arbitrates our done credit against the
      // medic's quarantine. Losing means the medic already credited the
      // slot (survivors adopt our remaining work): retire this thread; the
      // next heal_maintenance() joins it (and respawns a replacement in
      // kRespawn mode). A worker retired by a false-positive quarantine
      // is equally fine — the claim protocol made its extra work safe.
      if (!health_.try_transition(id, WorkerState::kActive,
                                  WorkerState::kFinished)) {
        health_.mark_exited(id);
        HealthBoard::unbind();
        return;
      }
    }
    done_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void Team::run_cycle() {
  DJSTAR_ASSERT_MSG(static_cast<bool>(fn_),
                    "run_cycle() without a body: use run_cycle(fn)");
  active_ = &fn_;
  dispatch_cycle();
}

void Team::run_cycle(const WorkerFn& fn) {
  DJSTAR_ASSERT_MSG(static_cast<bool>(fn), "submitted body must be callable");
  active_ = &fn;
  dispatch_cycle();
  // Restore the owned body (if any) so a later run_cycle() still works
  // and the dangling submitted pointer can never be observed.
  active_ = fn_ ? &fn_ : nullptr;
}

void Team::dispatch_cycle() {
  if (healing()) {
    heal_maintenance();
    health_.set_state(0, WorkerState::kActive);
    HealthBoard::bind(&health_, 0, &stop_);
    HealthBoard::clear_abandoned();
    health_.beat(0);
    cycle_armed_ns_.store(steady_now_ns(), std::memory_order_relaxed);
    in_cycle_.store(true, std::memory_order_release);
  }
  done_.store(0, std::memory_order_relaxed);
  // Open the cycle. The store publishes the body and the executor's
  // cycle state to every helper that joins.
  roster_.store(((generation() + 1) << kGenShift) | kOpen,
                std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    {
      const std::lock_guard<std::mutex> lk(park_mutex_);
    }
    park_cv_.notify_all();
  }

  // The caller is worker 0.
  chaos::maybe_perturb(chaos::Site::kCycleStart);
  run_body(0);
  if (healing()) {
    // Always succeeds: the medic never quarantines worker 0.
    health_.try_transition(0, WorkerState::kActive, WorkerState::kFinished);
  }
  // Close the cycle: from here no helper joins, and the ones that did
  // are all we wait for.
  const auto joined = static_cast<unsigned>(
      roster_.fetch_and(~kOpen, std::memory_order_acq_rel) & kCountMask);
  detail::SpinWaiter waiter;
  while (done_.load(std::memory_order_acquire) != joined) waiter.step();
  if (healing()) {
    in_cycle_.store(false, std::memory_order_release);
    await_retirements();
    HealthBoard::unbind();
  }
}

void Team::await_retirements() {
  // A slot the medic credited can still have a live thread inside this
  // cycle's body: a false-positive quarantine keeps working (the claim
  // protocol makes that safe), and a wedged worker needs a moment to
  // observe its state change. The caller is about to hand control back
  // to the executor, whose next run_cycle() resets per-cycle state
  // (executed counters, deques, the orphan buffer) — a straggler racing
  // that reset could resurrect into the new cycle mid-teardown and
  // corrupt it (e.g. an owner-side pop against Deque::clear()), losing a
  // node and hanging the team. Hold the cycle boundary until every
  // quarantined slot's thread has actually left the body. Bounded: the
  // old cycle's exit condition (all nodes executed) still holds here, so
  // live stragglers unwind within one bounded-wait period, wedge loops
  // exit on the state change, and aborted workers are already returning.
  if (health_.dead() == 0) return;  // dead() > 0 iff a slot is quarantined
  for (unsigned id = 1; id < threads_; ++id) {
    if (health_.state(id) != WorkerState::kQuarantined) continue;
    while (!health_.exited(id)) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  }
}

// ---- medic -----------------------------------------------------------------

void Team::medic_main() {
  std::vector<std::uint64_t> last_beats(threads_, 0);
  std::vector<double> last_progress_us(threads_, 0.0);
  std::uint64_t seen_generation = 0;
  const auto interval = std::chrono::duration<double, std::micro>(
      heal_.check_interval_us);
  std::unique_lock<std::mutex> lk(medic_mutex_);
  for (;;) {
    medic_cv_.wait_for(lk, interval, [&] { return medic_stop_; });
    if (medic_stop_) return;
    lk.unlock();
    medic_scan(last_beats, last_progress_us, seen_generation);
    lk.lock();
  }
}

void Team::medic_scan(std::vector<std::uint64_t>& last_beats,
                      std::vector<double>& last_progress_us,
                      std::uint64_t& seen_generation) {
  if (!in_cycle_.load(std::memory_order_acquire)) return;
  const std::uint64_t gen = generation();
  if (gen != seen_generation) {
    // New cycle: re-baseline every worker's progress clock.
    seen_generation = gen;
    for (unsigned w = 1; w < threads_; ++w) {
      last_beats[w] = health_.beats(w);
      last_progress_us[w] = 0.0;
    }
  }
  const double cycle_age_us =
      static_cast<double>(steady_now_ns() -
                          cycle_armed_ns_.load(std::memory_order_relaxed)) /
      1000.0;

  for (unsigned w = 1; w < threads_; ++w) {
    if (seats_[w].joined.load(std::memory_order_acquire) != gen) {
      // Not in this cycle (parked, or not awake yet): nothing to judge.
      // Its budget starts when it joins.
      last_progress_us[w] = cycle_age_us;
      continue;
    }
    const WorkerState st = health_.state(w);
    if (st == WorkerState::kAborted) {
      // Self-reported death (kWorkerAbort): no budget to wait out.
      quarantine(w);
      continue;
    }
    if (st != WorkerState::kActive) continue;
    const std::uint64_t b = health_.beats(w);
    if (b != last_beats[w]) {
      last_beats[w] = b;
      last_progress_us[w] = cycle_age_us;
      continue;
    }
    if (cycle_age_us - last_progress_us[w] > heal_.heartbeat_budget_us) {
      quarantine(w);
    }
  }
}

void Team::quarantine(unsigned w) {
  // Shrink the maintenance-vs-scan race window: only quarantine while a
  // cycle is genuinely in flight (a worker parked between cycles does
  // not beat, and must not be punished for it).
  if (!in_cycle_.load(std::memory_order_acquire)) return;
  const WorkerState st = health_.state(w);
  bool moved = false;
  if (st == WorkerState::kActive) {
    moved = health_.try_transition(w, WorkerState::kActive,
                                   WorkerState::kQuarantined);
  } else if (st == WorkerState::kAborted) {
    moved = health_.try_transition(w, WorkerState::kAborted,
                                   WorkerState::kQuarantined);
  }
  if (!moved) return;  // the worker finished in the race: nothing to heal

  health_.add_dead(1);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  // Survivors see the victim absent from here on and adopt its stranded
  // nodes. (Worker 0 closes the cycle only once every node is done, so
  // crediting the slot now cannot end the cycle early.)
  done_.fetch_add(1, std::memory_order_acq_rel);
}

void Team::heal_maintenance() {
  for (unsigned id = 1; id < threads_; ++id) {
    // The worker retires at its next cycle boundary (its wedge loop exits
    // once the state leaves kActive); join only after it has marked
    // itself exited, never blocking the cycle on it.
    if (health_.state(id) != WorkerState::kQuarantined ||
        !health_.exited(id)) {
      continue;
    }
    std::thread& th = workers_[id - 1];
    if (th.joinable()) th.join();
    if (heal_.mode == HealMode::kRespawn) {
      health_.clear_exited(id);
      health_.set_state(id, WorkerState::kFinished);
      health_.add_dead(-1);
      // Seed with the current generation: the replacement joins the
      // cycle this dispatch is about to open at the earliest.
      const std::uint64_t seen = generation();
      th = std::thread([this, id, seen] { thread_main(id, seen); });
      respawns_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace djstar::core
