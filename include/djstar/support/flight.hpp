// djstar/support/flight.hpp
// The span ring (DESIGN.md §10): the one sink executors write spans to.
//
// Every worker writes its spans into its own fixed-size overwriting ring
// (the newest span evicts the oldest; it never fills up and never
// allocates after configure()), each tagged with the cycle it belongs to.
// Each AudioEngine and each hosted session owns one ring, and every span
// reader reads it: the Fig.-11 capture (DJSTAR_TRACE, the fleet's Chrome
// export), the per-cycle attribution profiler, and the incident dumps
// that show what every thread was doing leading into a deadline miss,
// degradation step, or watchdog fire.
//
// Thread safety: record() is called by the owning worker only (one lane
// per worker). configure() and the collect/dump calls run between
// cycles, when workers are quiescent at the executor's cycle barrier;
// begin_cycle() is called by the cycle driver and read by workers
// through that same barrier.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "djstar/support/trace.hpp"

namespace djstar::support {

/// Ring capacity per lane that holds one whole cycle of a `nodes`-node
/// graph: a kRun span per node, at most one wait span ahead of each, and
/// a margin. Per-cycle readers (the profiler, one-cycle captures) size
/// their rings at least this large.
constexpr std::size_t whole_cycle_spans(std::size_t nodes) noexcept {
  return 2 * nodes + 64;
}

/// One recorded span tagged with the cycle it belongs to (span times are
/// relative to that cycle's start, as everywhere else).
struct FlightSpan {
  TraceSpan span;
  std::uint64_t cycle = 0;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Allocate `threads` lanes of `spans_per_thread` slots (rounded up to
  /// a power of two). Not real-time safe; call at setup or executor
  /// rebuild, never mid-cycle. Previously recorded spans are discarded.
  void configure(std::uint32_t threads, std::size_t spans_per_thread = 2048);

  /// Drop all lanes; record() becomes a no-op.
  void disable() noexcept;

  bool enabled() const noexcept { return !lanes_.empty(); }
  std::uint32_t thread_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  /// Advance the cycle tag for subsequently recorded spans. Called by
  /// the cycle driver between cycles; the executor's cycle-start
  /// synchronization publishes it to the workers.
  void begin_cycle() noexcept {
    cycle_.store(cycle_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }
  std::uint64_t cycle() const noexcept {
    return cycle_.load(std::memory_order_relaxed);
  }

  /// Record a span into lane `thread`, overwriting the lane's oldest
  /// entry when the ring is full. Wait-free, allocation-free; must only
  /// be called from the owning thread.
  void record(std::uint32_t thread, const TraceSpan& span) noexcept {
    if (thread >= lanes_.size()) return;
    Lane& lane = lanes_[thread];
    FlightSpan& slot = lane.ring[lane.next & lane.mask];
    slot.span = span;
    slot.cycle = cycle_.load(std::memory_order_relaxed);
    ++lane.next;
  }

  /// Spans recorded since configure() (monotonic; exceeds ring capacity
  /// once overwriting has begun).
  std::uint64_t recorded(std::uint32_t thread) const noexcept;
  std::uint64_t total_recorded() const noexcept;

  /// Merge every lane's retained spans from the last `cycles` cycles,
  /// stitched onto one timeline: ts = (cycle - window_start) * period_us
  /// + span.begin_us, sorted by (thread, ts). Call between cycles.
  std::vector<TraceSpan> collect_last(std::uint64_t cycles,
                                      double period_us) const;

  /// Append the retained spans of exactly cycle `cycle` (times left
  /// relative to that cycle's start) to `out`, sorted by (thread, begin).
  /// `out` is cleared first but keeps its capacity, so the per-cycle
  /// attribution path reuses one scratch vector and stops allocating
  /// once it has seen the largest cycle. Call between cycles.
  void collect_cycle(std::uint64_t cycle, std::vector<TraceSpan>& out) const;

  /// Dump the last `cycles` cycles as Chrome trace_event JSON (one
  /// process, tid = worker). Returns false on I/O failure.
  bool dump_chrome_trace(const std::string& path, std::uint64_t cycles,
                         double period_us,
                         std::string_view process_name = "djstar-flight",
                         std::uint32_t pid = 0) const;

 private:
  // One cache line per lane: each worker bumps only its own `next`.
  struct alignas(64) Lane {
    std::vector<FlightSpan> ring;  // size() == capacity (power of two)
    std::uint64_t next = 0;        // monotonic write cursor
    std::uint64_t mask = 0;
  };
  std::vector<Lane> lanes_;
  std::atomic<std::uint64_t> cycle_{0};
};

}  // namespace djstar::support
