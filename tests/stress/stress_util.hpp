// tests/stress/stress_util.hpp
// Shared plumbing for the concurrency-correctness harness: sanitizer
// detection, workload scaling, a hang watchdog, and the executor
// invariant checks replayed over instrumented DAGs.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "common/random_dag.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/executor.hpp"
#include "djstar/support/flight.hpp"

namespace djstar::test {

// ---- sanitizer detection ---------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define DJSTAR_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define DJSTAR_ASAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DJSTAR_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define DJSTAR_ASAN 1
#endif
#endif

#if defined(DJSTAR_TSAN)
inline constexpr bool kTsan = true;
#else
inline constexpr bool kTsan = false;
#endif
#if defined(DJSTAR_ASAN)
inline constexpr bool kAsan = true;
#else
inline constexpr bool kAsan = false;
#endif

/// Scale an iteration count down under instrumented builds so the
/// stress suite keeps its wall-clock budget (TSan serializes every
/// atomic op; the *coverage* comes from chaos injection, not from raw
/// repetition, so fewer iterations lose little).
constexpr int scaled(int n) noexcept {
  return kTsan ? (n / 5 > 0 ? n / 5 : 1)
               : (kAsan ? (n / 2 > 0 ? n / 2 : 1) : n);
}

/// Timeout budgets likewise stretch under sanitizers.
inline std::chrono::seconds scaled_timeout(int seconds) {
  return std::chrono::seconds(kTsan ? seconds * 10
                                    : (kAsan ? seconds * 3 : seconds));
}

// ---- hang watchdog ---------------------------------------------------------

/// Aborts the whole process if not disarmed within the budget. A hung
/// executor cycle (e.g. a lost wakeup) would otherwise pin the test
/// until ctest's generic timeout with no indication of where it stuck;
/// abort() instead produces a core/stack right at the hang.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds budget, std::string label)
      : label_(std::move(label)), thread_([this, budget] {
          std::unique_lock<std::mutex> lk(m_);
          if (!cv_.wait_for(lk, budget, [this] { return disarmed_; })) {
            std::fprintf(stderr,
                         "[watchdog] '%s' still running after %lld s — "
                         "likely lost wakeup / livelock, aborting\n",
                         label_.c_str(),
                         static_cast<long long>(budget.count()));
            std::fflush(stderr);
            std::abort();
          }
        }) {}

  ~Watchdog() {
    disarm();
    thread_.join();
  }

  void disarm() {
    {
      const std::lock_guard<std::mutex> lk(m_);
      disarmed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::string label_;
  std::mutex m_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

// ---- executor invariant checks ---------------------------------------------

/// Post-cycle invariants over an instrumented DAG:
///   1. every node executed exactly once;
///   2. every predecessor's completion stamp precedes its successors'.
/// `context` tags failures with the strategy/graph/cycle being replayed.
inline void check_cycle_invariants(const InstrumentedDag& dag,
                                   const std::string& context) {
  for (std::size_t i = 0; i < dag.done.size(); ++i) {
    ASSERT_EQ(dag.done[i].load(), 1)
        << context << ": node " << i << " not executed exactly once";
  }
  for (core::NodeId v = 0; v < dag.g.node_count(); ++v) {
    for (core::NodeId pred : dag.g.predecessors(v)) {
      ASSERT_LT(dag.stamp[pred], dag.stamp[v])
          << context << ": node " << v << " ran before its predecessor "
          << pred;
    }
  }
}

/// Cross-checks ExecutorStats against the span ring's evidence after
/// `cycles` runs of an `n`-node graph, each opened by begin_cycle() and
/// all still held by the ring:
///   - nodes_executed advanced by exactly cycles * n;
///   - every cycle holds exactly one kRun span per node;
///   - successful steals never exceed executed nodes.
inline void check_stats_trace_consistency(
    const core::ExecutorStats::Snapshot& before,
    const core::ExecutorStats::Snapshot& after,
    const support::FlightRecorder& flight, std::size_t n, std::size_t cycles,
    const std::string& context) {
  const std::uint64_t expected = static_cast<std::uint64_t>(n) * cycles;
  ASSERT_EQ(after.nodes_executed - before.nodes_executed, expected)
      << context << ": ExecutorStats lost or double-counted nodes";
  ASSERT_LE(after.steals - before.steals,
            after.nodes_executed - before.nodes_executed)
      << context << ": more successful steals than executed nodes";
  ASSERT_EQ(flight.cycle(), cycles) << context << ": cycle tags";

  std::vector<support::TraceSpan> spans;
  for (std::uint64_t c = 1; c <= cycles; ++c) {
    flight.collect_cycle(c, spans);
    std::vector<std::size_t> run_spans_per_node(n, 0);
    for (const auto& span : spans) {
      if (span.kind != support::SpanKind::kRun) continue;
      ASSERT_GE(span.node, 0) << context << ": kRun span without a node id";
      ASSERT_LT(static_cast<std::size_t>(span.node), n)
          << context << ": kRun span for out-of-range node " << span.node;
      ++run_spans_per_node[static_cast<std::size_t>(span.node)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(run_spans_per_node[i], 1u)
          << context << ": cycle " << c << " traced node " << i
          << " the wrong number of times";
    }
  }
}

}  // namespace djstar::test
