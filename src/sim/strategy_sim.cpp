#include "djstar/sim/strategy_sim.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "djstar/support/assert.hpp"

namespace djstar::sim {
namespace {

/// Shared result assembly.
void finalize(ScheduleResult& r) {
  for (const auto& e : r.entries) {
    r.makespan_us = std::max(r.makespan_us, e.finish_us);
  }
  // Profile via the same event-delta logic as the schedulers.
  std::vector<std::pair<double, int>> deltas;
  deltas.reserve(r.entries.size() * 2);
  for (const auto& e : r.entries) {
    deltas.emplace_back(e.start_us, 1);
    deltas.emplace_back(e.finish_us, -1);
  }
  std::sort(deltas.begin(), deltas.end());
  int active = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    active += deltas[i].second;
    if (i + 1 < deltas.size() && deltas[i + 1].first == deltas[i].first) {
      continue;  // merge simultaneous events
    }
    r.profile_times_us.push_back(deltas[i].first);
    r.profile_active.push_back(active);
  }
}

/// Round-robin strategies (BUSY and SLEEP share the queue layout).
ScheduleResult simulate_round_robin(const SimGraph& g, bool sleeping,
                                    std::uint32_t T,
                                    const OverheadModel& ov) {
  ScheduleResult r;
  r.processors_used = T;
  const std::size_t n = g.node_count();
  std::vector<double> finish(n, 0);
  std::vector<std::uint32_t> owner(n, 0);  // thread that ran each node
  std::vector<double> t(T, 0.0);

  const double check = ov.scaled_check(T);
  if (T > 1) {
    for (auto& tw : t) tw = ov.dispatch_us;
  }
  if (sleeping) {
    // Workers are parked between cycles; the cycle-start notify_all costs
    // the master one signal and each worker a wake latency.
    for (std::uint32_t w = 1; w < T; ++w) t[w] += ov.wake_latency_us;
    t[0] += ov.signal_cost_us;
  }

  // Nodes are processed in queue order; every predecessor of order[k]
  // appears before position k, so its finish time is already known.
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t w = static_cast<std::uint32_t>(k % T);
    const NodeId v = g.order[k];

    double ready = 0;
    NodeId last_pred = core::kInvalidNode;
    for (NodeId p : g.predecessors[v]) {
      if (finish[p] >= ready) {
        ready = finish[p];
        last_pred = p;
      }
    }

    const double avail = t[w] + check;
    double start;
    if (ready <= avail) {
      start = avail;
    } else if (!sleeping) {
      // Busy wait: the spinning thread notices within one quantum.
      start = ready + ov.spin_quantum_us;
      r.waits.push_back({w, avail, start, false});
    } else {
      // Sleep: park (entry cost), then the resolving predecessor's
      // thread signals us; we resume one wake latency later.
      const double park_done = avail + ov.sleep_entry_us;
      double signal_time = ready;
      if (last_pred != core::kInvalidNode) {
        // The signalling thread pays for the notify; this delays its own
        // next node.
        t[owner[last_pred]] += ov.signal_cost_us;
        signal_time = ready + ov.signal_cost_us;
      }
      start = std::max(park_done, signal_time + ov.wake_latency_us);
      r.waits.push_back({w, avail, start, true});
    }

    finish[v] = start + g.duration_us[v];
    owner[v] = w;
    t[w] = finish[v];
    r.entries.push_back({v, w, start, finish[v]});
  }
  finalize(r);
  return r;
}

/// Event-driven work-stealing simulation.
ScheduleResult simulate_ws(const SimGraph& g, std::uint32_t T,
                           const OverheadModel& ov) {
  constexpr double kParked = std::numeric_limits<double>::infinity();
  ScheduleResult r;
  r.processors_used = T;
  const std::size_t n = g.node_count();

  std::vector<std::size_t> pending(n);
  for (NodeId v = 0; v < n; ++v) pending[v] = g.predecessors[v].size();
  // Earliest virtual time a node may start (its releasing predecessor's
  // finish + push cost). A thief whose clock lags the pusher must still
  // wait for this.
  std::vector<double> ready_at(n, 0.0);

  // Per-thread deque: back = bottom (owner LIFO), front = top (steal).
  std::vector<std::deque<NodeId>> dq(T);
  std::vector<double> t(T, 0.0);
  std::vector<std::uint32_t> failed_rounds(T, 0);
  std::vector<double> park_begin(T, 0.0);

  const double contention =
      1.0 + ov.contention_per_thread * static_cast<double>(T - 1);

  // Master seeds source queues by section (paper Fig. 7a).
  std::size_t sources = 0;
  for (NodeId v : g.order) {
    if (!g.predecessors[v].empty()) break;
    dq[g.section[v] % T].push_back(v);
    ++sources;
  }
  const double seed_done = static_cast<double>(sources) * ov.seed_cost_us +
                           (T > 1 ? ov.dispatch_us : 0.0);
  for (auto& tw : t) tw = seed_done;

  std::size_t executed = 0;

  auto unpark_one = [&](double when) {
    for (std::uint32_t w = 0; w < T; ++w) {
      if (t[w] == kParked) {
        t[w] = when + ov.wake_latency_us;
        failed_rounds[w] = 0;
        r.waits.push_back({w, park_begin[w], t[w], true});
        return;
      }
    }
  };

  while (executed < n) {
    // Advance the earliest-available thread.
    std::uint32_t w = 0;
    double tmin = kParked;
    for (std::uint32_t i = 0; i < T; ++i) {
      if (t[i] < tmin) {
        tmin = t[i];
        w = i;
      }
    }
    DJSTAR_ASSERT_MSG(tmin != kParked, "all threads parked with work left");

    NodeId v = core::kInvalidNode;
    if (!dq[w].empty()) {
      v = dq[w].back();
      dq[w].pop_back();
      t[w] += ov.deque_op_us * contention;
    } else {
      // Steal round.
      bool got = false;
      for (std::uint32_t d = 1; d < T && !got; ++d) {
        const std::uint32_t victim = (w + d) % T;
        t[w] += ov.steal_probe_us * contention;
        if (!dq[victim].empty()) {
          v = dq[victim].front();  // oldest item
          dq[victim].pop_front();
          got = true;
        }
      }
      if (!got) {
        if (++failed_rounds[w] >= 4) {
          park_begin[w] = t[w];
          t[w] = kParked;  // park until a push unparks us
        } else {
          r.waits.push_back({w, t[w], t[w] + ov.spin_quantum_us, false});
          t[w] += ov.spin_quantum_us;  // yield and retry
        }
        continue;
      }
      failed_rounds[w] = 0;
    }

    const double start = std::max(t[w], ready_at[v]);
    const double fin = start + g.duration_us[v];
    r.entries.push_back({v, w, start, fin});
    t[w] = fin;
    ++executed;

    for (NodeId s : g.successors[v]) {
      if (--pending[s] == 0) {
        t[w] += ov.deque_op_us * contention;
        ready_at[s] = t[w];
        dq[w].push_back(s);
        unpark_one(t[w]);
      }
    }
  }
  finalize(r);
  return r;
}

}  // namespace

ScheduleResult simulate_strategy(const SimGraph& g, SimStrategy strategy,
                                 std::uint32_t threads,
                                 const OverheadModel& ov) {
  DJSTAR_ASSERT(threads >= 1);
  switch (strategy) {
    case SimStrategy::kBusy:
      return simulate_round_robin(g, /*sleeping=*/false, threads, ov);
    case SimStrategy::kSleep:
      return simulate_round_robin(g, /*sleeping=*/true, threads, ov);
    case SimStrategy::kWorkStealing:
      return simulate_ws(g, threads, ov);
  }
  return {};
}

ScheduleResult simulate_busy(const SimGraph& g, std::uint32_t threads,
                             const OverheadModel& ov) {
  return simulate_strategy(g, SimStrategy::kBusy, threads, ov);
}

ScheduleResult simulate_sleep(const SimGraph& g, std::uint32_t threads,
                              const OverheadModel& ov) {
  return simulate_strategy(g, SimStrategy::kSleep, threads, ov);
}

ScheduleResult simulate_work_stealing(const SimGraph& g,
                                      std::uint32_t threads,
                                      const OverheadModel& ov) {
  return simulate_strategy(g, SimStrategy::kWorkStealing, threads, ov);
}

}  // namespace djstar::sim
