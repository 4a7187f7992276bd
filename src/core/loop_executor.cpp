#include "djstar/core/loop_executor.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "djstar/core/chase_lev_deque.hpp"
#include "djstar/core/chaos.hpp"
#include "djstar/core/detail/spin.hpp"
#include "djstar/support/assert.hpp"

namespace djstar::core {
namespace detail {
namespace {

using support::SpanKind;

// What a ready-source's next() returns besides a node id.
constexpr NodeId kDone = kInvalidNode;       // this worker's cycle is over
constexpr NodeId kRetry = kInvalidNode - 1;  // nothing ready: wait, retry

// Every wait is bounded, so a worker whose waker is absent (not joined,
// or quarantined) wakes on its own to adopt what the absent owner left.
// A park is shorter while some worker is absent: nobody is registered
// to wake us for an absent owner's nodes.
constexpr auto kPark = std::chrono::microseconds(200);
constexpr auto kAbsentPark = std::chrono::microseconds(50);
// SpinWaiter steps per bounded spin; the waiter keeps its escalation
// across retries, so an oversubscribed busy team still yields and sleeps.
constexpr unsigned kSpinBurst = 256;
// The work-stealing idle park: a safety net against the push-vs-park
// race.
constexpr auto kIdlePark = std::chrono::microseconds(100);
// Failed full steal rounds before an idle work-stealing worker parks.
constexpr std::uint32_t kStealRoundsBeforePark = 16;

/// One worker's span sink for one cycle: its lane of the span ring.
class Sink {
 public:
  Sink(const ExecOptions& o, unsigned w, support::Clock::time_point t0)
      : flight_(o.flight != nullptr && o.flight->enabled() ? o.flight
                                                           : nullptr),
        w_(w), t0_(t0) {}

  bool on() const noexcept { return flight_ != nullptr; }
  unsigned worker() const noexcept { return w_; }
  /// Microseconds since cycle start; 0 when nothing records.
  double clock() const noexcept {
    return on() ? support::elapsed_us(t0_, support::now()) : 0.0;
  }

  /// Record `s`; only while on().
  void emit(const support::TraceSpan& s) const { flight_->record(w_, s); }

  /// The wait span (the configuration's Fig. 11 colour) from `begin` to
  /// now: ahead of `node`, or -1 when the cycle ended before another
  /// node came.
  void wait(double begin, std::int32_t node, SpanKind kind) const {
    const double end = clock();
    if (end - begin > 0.5) emit({begin, end, w_, node, kind});
  }

  /// Victim of the steal that delivered the node now running, -1 for
  /// local work. Stamped on its kRun span so attribution can tell
  /// migrated work from local work.
  std::int32_t steal_from = -1;

 private:
  support::FlightRecorder* flight_;
  unsigned w_;
  support::Clock::time_point t0_;
};

/// The claim gate every node passes (DESIGN.md §12). Wins the node's
/// claim CAS (the exactly-once arbiter when an adopter and the owner
/// race, or a queue holds a stale copy); on a healing team consumes any
/// worker fault decided for the node — releasing the claim and wedging
/// or retiring the calling thread instead of running — and beats. Then
/// runs the node through CompiledGraph::execute() (which owns the fault,
/// skip, bypass and cancel semantics), emits its kRun span when
/// recording, and marks it done. Only a true return may resolve
/// successors; after a false one the caller must check
/// HealthBoard::abandoned().
bool claim_run(CompiledGraph& g, HealthBoard* hb, NodeId n,
               ExecutorStats& stats, const Sink& sink) {
  if (!g.try_claim(n)) return false;
  const unsigned w = sink.worker();
  if (hb != nullptr) {
    if (g.worker_faults_armed()) {
      const chaos::FaultKind wf = g.take_worker_fault(n);
      // Worker 0 is the caller thread and cannot be replaced: its worker
      // faults are consumed and ignored (take_worker_fault already
      // counted and journaled the injection).
      if (wf != chaos::FaultKind::kNone && w != 0) {
        g.release_claim(n);
        HealthBoard::on_worker_fault(wf);
        return false;
      }
    }
    hb->beat(w);
  }
  if (!sink.on()) {
    g.execute(n);
  } else {
    const double begin = sink.clock();
    g.execute(n);
    sink.emit({begin, sink.clock(), w, static_cast<std::int32_t>(n),
               SpanKind::kRun, sink.steal_from});
  }
  stats.nodes_executed.fetch_add(1, std::memory_order_relaxed);
  g.mark_done(n);
  return true;
}

/// A node every predecessor resolved that nobody has claimed.
bool stranded(CompiledGraph& g, NodeId n) noexcept {
  return !g.claimed(n) && g.pending(n).load(std::memory_order_acquire) == 0;
}

// ---- wait policies of the lane source ----

/// busy: spin on the node's dependency counter.
struct SpinWait {
  explicit SpinWait(unsigned) {}

  void bounded(CompiledGraph& g, NodeId n, unsigned, SpinWaiter& waiter,
               bool, ExecutorStats& st) {
    auto& pending = g.pending(n);
    const std::uint64_t before = waiter.spins();
    for (unsigned i = 0;
         i < kSpinBurst && pending.load(std::memory_order_acquire) != 0; ++i) {
      waiter.step();
    }
    st.busy_wait_spins.fetch_add(waiter.spins() - before,
                                 std::memory_order_relaxed);
  }
  void release(CompiledGraph& g, NodeId s, ExecutorStats&) {
    g.pending(s).fetch_sub(1, std::memory_order_acq_rel);
  }
};

/// sleep: register as the node's executor and park on an own slot; the
/// predecessor that resolves the last dependency wakes exactly that
/// worker (paper Fig. 6).
class ParkWait {
 public:
  explicit ParkWait(unsigned threads)
      : slots_(std::make_unique<Slot[]>(threads)) {}

  void bounded(CompiledGraph& g, NodeId n, unsigned w, SpinWaiter&,
               bool full, ExecutorStats& st) {
    // Register (Fig. 6a), then re-check: either we observe pending == 0
    // here (the resolving predecessor ran between our first check and
    // the registration), or the predecessor observes our registration
    // and wakes us. seq_cst on both sides makes the flag/counter
    // protocol race-free. Leaving the registration in place across
    // retries is harmless: a notify to an awake worker is a no-op.
    auto& pending = g.pending(n);
    g.waiter(n).store(static_cast<std::int32_t>(w), std::memory_order_seq_cst);
    chaos::maybe_perturb(chaos::Site::kBeforeWait);
    if (pending.load(std::memory_order_seq_cst) == 0) return;
    st.sleeps.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lk(slots_[w].m);
    slots_[w].cv.wait_for(lk, full ? kPark : kAbsentPark, [&] {
      return pending.load(std::memory_order_acquire) == 0;
    });
  }
  void release(CompiledGraph& g, NodeId s, ExecutorStats& st) {
    // Fig. 6b: the predecessor that resolves the last dependency wakes
    // the registered executor, if any.
    if (g.pending(s).fetch_sub(1, std::memory_order_seq_cst) != 1) return;
    chaos::maybe_perturb(chaos::Site::kBeforeNotify);
    const std::int32_t sleeper =
        g.waiter(s).exchange(-1, std::memory_order_seq_cst);
    if (sleeper < 0) return;
    Slot& slot = slots_[static_cast<unsigned>(sleeper)];
    // Taking the slot mutex orders this notify after the sleeper's
    // predicate check, so the wakeup cannot be lost (CP.42).
    const std::lock_guard<std::mutex> lk(slot.m);
    slot.cv.notify_one();
    st.wakeups.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// A worker only ever sleeps on its own slot (CP.50: the mutex lives
  /// with the condition it guards).
  struct alignas(64) Slot {
    std::mutex m;
    std::condition_variable cv;
  };
  std::unique_ptr<Slot[]> slots_;
};

// ---- ready-sources ----
//
// next() hands out a ready node without blocking, or says kRetry
// (nothing ready yet) or kDone (this worker's cycle is over); wait() is
// one bounded wait before the next retry. owner(n) is the worker whose
// absence strands `n` (-1: nobody's).

/// Round-robin lanes over the dependency-sorted node queue: worker w owns
/// nodes w, w+T, w+2T, ... and waits for each one's dependencies by Wait.
template <class Wait>
class Lanes {
 public:
  struct Cursor {
    std::size_t k;
    SpinWaiter waiter;  // escalation of the wait for order[k]
  };

  Lanes(CompiledGraph& g, unsigned threads, const WorkStealingOptions&)
      : g_(g), threads_(threads), wait_(threads), owner_(g.node_count()) {
    const auto order = g.order();
    for (std::size_t k = 0; k < order.size(); ++k) {
      owner_[order[k]] = static_cast<std::int32_t>(k % threads);
    }
  }

  void begin_cycle() {}
  Cursor start(unsigned w) { return {w, {}}; }
  std::int32_t owner(NodeId n) const noexcept { return owner_[n]; }

  NodeId next(unsigned w, Cursor& c, ExecutorStats&, Sink&, bool full) {
    const auto order = g_.order();
    if (c.k >= order.size()) {
      // Lane done. Worker 0 closes the cycle, so it stays until the whole
      // graph is done; a helper stays only while some lane may need an
      // adopter.
      if (g_.nodes_done() >= g_.node_count() || (w != 0 && full)) {
        return kDone;
      }
      return kRetry;
    }
    // Dependency check (the gray boxes in paper Fig. 11).
    chaos::maybe_perturb(chaos::Site::kDependencyCheck);
    const NodeId n = order[c.k];
    if (g_.pending(n).load(std::memory_order_acquire) != 0) return kRetry;
    c.k += threads_;
    c.waiter.reset();
    return n;
  }

  void wait(unsigned w, Cursor& c, ExecutorStats& st, bool full) {
    const auto order = g_.order();
    if (c.k >= order.size()) {
      c.waiter.step();
    } else {
      wait_.bounded(g_, order[c.k], w, c.waiter, full, st);
    }
  }

  void resolve(unsigned, NodeId n, ExecutorStats& st) {
    for (NodeId s : g_.successors(n)) wait_.release(g_, s, st);
  }

 private:
  CompiledGraph& g_;
  unsigned threads_;
  Wait wait_;
  std::vector<std::int32_t> owner_;  // lane of each node
};

/// shared: one mutex-protected ring of ready nodes, preallocated so a
/// push on the audio path never allocates. Each node enters it once per
/// cycle (seeded or pushed by the resolver of its last dependency), so
/// node_count + 1 slots never overflow.
class Ring {
 public:
  struct Cursor {};

  Ring(CompiledGraph& g, unsigned, const WorkStealingOptions&)
      : g_(g), ring_(g.node_count() + 1) {}

  void begin_cycle() {
    const std::lock_guard<std::mutex> lk(m_);
    head_ = tail_ = 0;
    executed_ = 0;
    for (NodeId n : g_.sources()) push(n);
  }
  Cursor start(unsigned) { return {}; }
  std::int32_t owner(NodeId) const noexcept { return -1; }

  NodeId next(unsigned, Cursor&, ExecutorStats&, Sink&, bool) {
    chaos::maybe_perturb(chaos::Site::kBeforeWait);
    const std::lock_guard<std::mutex> lk(m_);
    if (executed_ == g_.node_count()) return kDone;
    if (head_ == tail_) return kRetry;
    const NodeId n = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    return n;
  }

  void wait(unsigned, Cursor&, ExecutorStats&, bool) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait_for(lk, kPark, [&] {
      return head_ != tail_ || executed_ == g_.node_count();
    });
  }

  void resolve(unsigned, NodeId n, ExecutorStats&) {
    std::size_t newly_ready = 0;
    {
      const std::lock_guard<std::mutex> lk(m_);
      for (NodeId s : g_.successors(n)) {
        if (g_.pending(s).fetch_sub(1, std::memory_order_acq_rel) == 1) {
          push(s);
          ++newly_ready;
        }
      }
      if (++executed_ == g_.node_count()) {
        cv_.notify_all();  // everyone can exit
        return;
      }
    }
    if (newly_ready == 0) return;
    chaos::maybe_perturb(chaos::Site::kBeforeNotify);
    if (newly_ready == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

 private:
  void push(NodeId n) {
    ring_[tail_] = n;
    tail_ = (tail_ + 1) % ring_.size();
  }

  CompiledGraph& g_;
  std::mutex m_;  // CP.50: the ring and its mutex live together
  std::condition_variable cv_;
  std::vector<NodeId> ring_;
  std::size_t head_ = 0, tail_ = 0;  // guarded by m_
  std::size_t executed_ = 0;          // guarded by m_
};

/// ws: per-worker Chase-Lev deques of ready nodes. The owner pops at the
/// bottom (LIFO, cache-warm), thieves steal from the top (FIFO). Idle
/// workers retry pause+yield rounds, then park on the idle cv until new
/// work is pushed (paper: WS only sleeps when solely blocked nodes
/// remain).
class Deques {
 public:
  struct Cursor {
    std::uint32_t failed_rounds = 0;
  };

  Deques(CompiledGraph& g, unsigned threads, const WorkStealingOptions& ws)
      : g_(g), per_worker_(threads), owner_(g.node_count(), -1) {
    // Paper §V-C: "the main thread fills up the processing queues of all
    // executor threads. It distributes all nodes without dependencies
    // (source nodes) to the threads", grouped by section for data
    // locality. The split is the same every cycle; a worker pushes its
    // share when it joins.
    unsigned rr = 0;
    for (NodeId n : g.sources()) {
      const unsigned target = ws.seed == SeedMode::kBySection
                                  ? g.section_index(n) % threads
                                  : rr++ % threads;
      per_worker_[target].inbox.push_back(n);
      owner_[n] = static_cast<std::int32_t>(target);
    }
    for (auto& pw : per_worker_) {
      pw.deque = std::make_unique<ChaseLevDeque>(g.node_count() + 1);
    }
  }

  void begin_cycle() {
    executed_.store(0, std::memory_order_relaxed);
    // A late joiner's seeds, or a node adopted elsewhere, can stay queued
    // as stale copies; never let them leak into the next cycle.
    for (auto& pw : per_worker_) pw.deque->clear();
  }

  // begin_cycle() ran before the team opened the cycle, which publishes
  // it (release/acquire). Seeds an adopter already took stay out.
  Cursor start(unsigned w) {
    for (NodeId n : per_worker_[w].inbox) {
      if (!g_.claimed(n)) {
        per_worker_[w].deque->push(static_cast<ChaseLevDeque::Item>(n));
      }
    }
    return {};
  }
  std::int32_t owner(NodeId n) const noexcept { return owner_[n]; }

  NodeId next(unsigned w, Cursor& c, ExecutorStats& st, Sink& sink, bool) {
    if (executed_.load(std::memory_order_acquire) >= g_.node_count()) {
      return kDone;
    }
    NodeId n;
    if (!try_get(w, n, sink.steal_from, st)) return kRetry;
    c.failed_rounds = 0;
    return n;
  }

  void wait(unsigned, Cursor& c, ExecutorStats& st, bool) {
    if (++c.failed_rounds < kStealRoundsBeforePark) {
      cpu_pause();
      std::this_thread::yield();
    } else {
      park(st);
    }
  }

  void resolve(unsigned w, NodeId n, ExecutorStats& st) {
    // Successors whose last dependency this node resolved join *our*
    // deque (LIFO) for cache locality (paper §V-C).
    for (NodeId s : g_.successors(n)) {
      if (g_.pending(s).fetch_sub(1, std::memory_order_acq_rel) != 1) {
        continue;
      }
      per_worker_[w].deque->push(static_cast<ChaseLevDeque::Item>(s));
      // Wake a parked worker, if any (lost-wake safe: parks are bounded
      // and re-check an epoch counter).
      chaos::maybe_perturb(chaos::Site::kNodeReady);
      if (idlers_.load(std::memory_order_acquire) > 0) {
        idle_epoch_.fetch_add(1, std::memory_order_release);
        idle_cv_.notify_one();
        st.wakeups.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (executed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        g_.node_count()) {
      // Everyone still parked must observe completion promptly.
      idle_epoch_.fetch_add(1, std::memory_order_release);
      idle_cv_.notify_all();
      if (idlers_.load(std::memory_order_acquire) > 0) {
        st.wakeups.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

 private:
  // Own deque bottom first, then one steal round over every other
  // worker's top. `from` reports the victim of a successful steal.
  bool try_get(unsigned w, NodeId& out, std::int32_t& from,
               ExecutorStats& st) {
    from = -1;
    const auto own = per_worker_[w].deque->pop();
    if (own >= 0) {
      out = static_cast<NodeId>(own);
      return true;
    }
    const auto T = static_cast<unsigned>(per_worker_.size());
    for (unsigned d = 1; d < T; ++d) {
      const unsigned victim = (w + d) % T;
      const auto got = per_worker_[victim].deque->steal();
      if (got >= 0) {
        out = static_cast<NodeId>(got);
        from = static_cast<std::int32_t>(victim);
        st.steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      st.steal_failures.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  void park(ExecutorStats& st) {
    const auto epoch = idle_epoch_.load(std::memory_order_acquire);
    chaos::maybe_perturb(chaos::Site::kBeforeWait);
    st.sleeps.fetch_add(1, std::memory_order_relaxed);
    idlers_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::unique_lock<std::mutex> lk(idle_mutex_);
      idle_cv_.wait_for(lk, kIdlePark, [&] {
        return idle_epoch_.load(std::memory_order_acquire) != epoch ||
               executed_.load(std::memory_order_acquire) >= g_.node_count();
      });
    }
    idlers_.fetch_sub(1, std::memory_order_acq_rel);
  }

  struct alignas(64) PerWorker {
    std::unique_ptr<ChaseLevDeque> deque;
    std::vector<NodeId> inbox;  // this worker's seeds, fixed
  };

  CompiledGraph& g_;
  std::vector<PerWorker> per_worker_;
  std::vector<std::int32_t> owner_;  // seed target of each source, else -1
  alignas(64) std::atomic<std::size_t> executed_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<std::uint32_t> idle_epoch_{0};
  std::atomic<std::uint32_t> idlers_{0};
};

/// The first stranded node in queue order whose owner is absent, or
/// kRetry. An owner is absent while it has not joined the cycle or is
/// quarantined. While a worker is quarantined every stranded node is
/// adoptable: the dead worker may have taken any node (a steal, a pop, a
/// claim of an adopted node) and released it when its fault fired.
template <class Source>
NodeId adopt(CompiledGraph& g, const Source& src, const Team& tm) {
  const bool dead = tm.healing() && tm.health().dead() > 0;
  for (NodeId n : g.order()) {
    if (!stranded(g, n)) continue;
    const std::int32_t owner = src.owner(n);
    if (dead || (owner >= 0 && !tm.present(static_cast<unsigned>(owner)))) {
      return n;
    }
  }
  return kRetry;
}

/// The configuration's wait-span colour in Fig. 11 traces.
template <Strategy S>
constexpr SpanKind kWaitSpan =
    S == Strategy::kBusyWait       ? SpanKind::kBusyWait
    : S == Strategy::kWorkStealing ? SpanKind::kSteal
                                   : SpanKind::kSleep;

}  // namespace
}  // namespace detail

// ---- the five configurations ----

template <>
class ReadySource<Strategy::kSequential>
    : public detail::Lanes<detail::SpinWait> {
 public:
  using Lanes::Lanes;
};
template <>
class ReadySource<Strategy::kBusyWait>
    : public detail::Lanes<detail::SpinWait> {
 public:
  using Lanes::Lanes;
};
template <>
class ReadySource<Strategy::kSleep> : public detail::Lanes<detail::ParkWait> {
 public:
  using Lanes::Lanes;
};
template <>
class ReadySource<Strategy::kSharedQueue> : public detail::Ring {
 public:
  using Ring::Ring;
};
template <>
class ReadySource<Strategy::kWorkStealing> : public detail::Deques {
 public:
  using Deques::Deques;
};

// ---- the loop ----

template <Strategy S>
LoopExecutor<S>::LoopExecutor(CompiledGraph& graph, ExecOptions opts,
                              WorkStealingOptions ws)
    : graph_(graph), opts_(opts) {
  if constexpr (S == Strategy::kSequential) {
    opts_.threads = 1;  // the caller walks the queue front to back
  }
  src_ = std::make_unique<ReadySource<S>>(graph, opts_.threads, ws);
  if constexpr (S != Strategy::kSequential) {
    team_ = std::make_unique<Team>(
        opts_.threads, [this](unsigned w) { body(w); }, opts_.heal);
  }
}

template <Strategy S>
LoopExecutor<S>::LoopExecutor(CompiledGraph& graph, Team& shared_team,
                              ExecOptions opts, WorkStealingOptions ws)
    : graph_(graph),
      opts_(opts),
      src_(std::make_unique<ReadySource<S>>(graph, opts.threads, ws)),
      shared_(&shared_team),
      body_([this](unsigned w) { body(w); }) {
  DJSTAR_ASSERT_MSG(opts_.threads == shared_team.threads(),
                    "hosted executor must match the shared team's width");
}

template <Strategy S>
LoopExecutor<S>::~LoopExecutor() = default;

template <Strategy S>
void LoopExecutor<S>::run_cycle() {
  // begin_cycle() also advances the fault-injection cycle index and
  // clears the previous cycle's fault/cancel state — required for the
  // sequential fallback to recover after a faulted cycle.
  graph_.begin_cycle();
  src_->begin_cycle();
  cycle_start_ = support::now();
  // Team::run_cycle() opens the cycle with a release store, which
  // publishes the cycle state above to every helper that joins.
  if (shared_ != nullptr) {
    shared_->run_cycle(body_);
  } else if (team_ != nullptr) {
    team_->run_cycle();
  } else {
    body(0);
  }
}

template <Strategy S>
void LoopExecutor<S>::body(unsigned w) {
  ReadySource<S>& src = *src_;
  detail::Sink sink(opts_, w, cycle_start_);
  const Team* const tm = team();
  HealthBoard* const hb =
      tm != nullptr && tm->healing()
          ? &(shared_ != nullptr ? *shared_ : *team_).health()
          : nullptr;
  auto cursor = src.start(w);
  for (;;) {
    const double wait_begin = sink.clock();
    bool full = tm == nullptr || tm->full();
    NodeId n = src.next(w, cursor, stats_, sink, full);
    bool adopted = false;
    while (n == detail::kRetry) {
      // Nothing of ours is ready: adopt a ready node whose owner is
      // absent (DESIGN.md §12), then wait and retry.
      if (!full && (n = detail::adopt(graph_, src, *tm)) != detail::kRetry) {
        adopted = true;
        break;
      }
      src.wait(w, cursor, stats_, full);
      if (hb != nullptr) hb->beat(w);
      full = tm == nullptr || tm->full();
      n = src.next(w, cursor, stats_, sink, full);
    }
    if (S != Strategy::kSequential && sink.on()) {
      sink.wait(wait_begin,
                n == detail::kDone ? -1 : static_cast<std::int32_t>(n),
                detail::kWaitSpan<S>);
    }
    if (n == detail::kDone) return;
    if (!detail::claim_run(graph_, hb, n, stats_, sink)) {
      if (HealthBoard::abandoned()) return;  // wedged or aborted
      continue;  // lost the claim: the node ran elsewhere
    }
    if (adopted && hb != nullptr) {
      // A rescue is a node adopted while a worker is quarantined, not
      // one taken from a helper that has not joined yet.
      if (hb->dead() > 0) hb->note_rescued(1);
    }
    src.resolve(w, n, stats_);
  }
}

template class LoopExecutor<Strategy::kSequential>;
template class LoopExecutor<Strategy::kBusyWait>;
template class LoopExecutor<Strategy::kSleep>;
template class LoopExecutor<Strategy::kWorkStealing>;
template class LoopExecutor<Strategy::kSharedQueue>;

}  // namespace djstar::core
