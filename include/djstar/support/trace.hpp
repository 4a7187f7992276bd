// djstar/support/trace.hpp
// Per-thread span recording for schedule visualization (paper Fig. 11).
//
// Executors record one TraceSpan per node execution (plus optional wait
// spans). The recorder preallocates; record() after arming never allocates,
// so tracing can stay enabled during timed runs with bounded overhead.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace djstar::support {

/// What a worker thread was doing during a span of time.
enum class SpanKind : std::uint8_t {
  kRun,       ///< executing a graph node
  kBusyWait,  ///< spinning on an unmet dependency (paper: gray boxes)
  kSleep,     ///< parked on a condition variable (paper: white areas)
  kSteal,     ///< probing other threads' deques
  kOverhead,  ///< queue management / dependency checking
};

const char* to_string(SpanKind k) noexcept;

/// One contiguous activity interval on one worker thread.
/// Times are in microseconds relative to the start of the traced cycle.
struct TraceSpan {
  double begin_us = 0;
  double end_us = 0;
  std::uint32_t thread = 0;
  std::int32_t node = -1;  ///< node id (a wait span's: the node it awaited)
  SpanKind kind = SpanKind::kRun;
  /// Victim worker the node was stolen from, -1 when the node ran on the
  /// worker that published it. Lets attribution follow cross-worker
  /// dependency chains unambiguously (a stolen kRun's predecessor lane is
  /// the victim's, not the runner's).
  std::int32_t steal_from = -1;

  double duration_us() const noexcept { return end_us - begin_us; }
};

/// Fixed-capacity span sink shared by all workers of one executor run.
/// Thread safety: each worker writes only to its own lane; lanes are
/// merged on collect().
class TraceRecorder {
 public:
  TraceRecorder() = default;

  /// Prepare `threads` lanes with `capacity_per_thread` preallocated spans
  /// each, and mark the recorder armed. Not real-time safe.
  void arm(std::uint32_t threads, std::size_t capacity_per_thread = 4096);

  /// Disarm and drop all recorded spans.
  void disarm() noexcept;

  bool armed() const noexcept { return armed_; }

  /// Append a span to lane `thread`. No-op when disarmed; when the lane
  /// is full the span is dropped and counted (see dropped()).
  /// Allocation-free. Must only be called from the owning thread.
  void record(std::uint32_t thread, const TraceSpan& span) noexcept;

  /// Drop recorded spans (and drop counters) but keep the lanes armed at
  /// their existing capacity. Allocation-free, so per-cycle profiling can
  /// reuse one recorder as a cycle-scoped span buffer. Must not run
  /// concurrently with record() (call between cycles).
  void clear_spans() noexcept;

  /// Merge all lanes, sorted by (thread, begin). Clears nothing. When
  /// truncated() is true the result is missing total_dropped() spans
  /// (the tails of the full lanes); Chrome-trace output carries the same
  /// information as a "dropped spans" instant event.
  std::vector<TraceSpan> collect() const;

  /// collect() into a caller-owned vector (cleared, capacity kept), so a
  /// per-cycle profiling loop stays allocation-free after warm-up.
  void collect_into(std::vector<TraceSpan>& out) const;

  /// Spans dropped from lane `thread` because it was full.
  std::uint64_t dropped(std::uint32_t thread) const noexcept;
  /// Spans dropped across all lanes since arm().
  std::uint64_t total_dropped() const noexcept;
  /// True when any lane has dropped spans (collect() is incomplete).
  bool truncated() const noexcept { return total_dropped() != 0; }

  std::uint32_t thread_count() const noexcept {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  /// Write this recorder's spans as Chrome trace_event JSON, loadable in
  /// chrome://tracing and Perfetto: one complete ("X") event per span
  /// under process `pid` (tid = worker). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path, std::uint32_t pid = 0,
                          std::string_view process_name = "djstar") const;

 private:
  struct Lane {
    std::vector<TraceSpan> spans;  // size() == used entries
    std::size_t capacity = 0;
    std::uint64_t dropped = 0;  // record() calls refused because full
  };
  std::vector<Lane> lanes_;
  bool armed_ = false;
};

/// One process (pid) worth of spans for a combined multi-session trace.
/// The serve layer emits one TraceProcess per hosted session so a fleet
/// schedule renders as parallel process tracks in Perfetto.
struct TraceProcess {
  std::string name;             ///< process_name metadata shown in the UI
  std::uint32_t pid = 0;        ///< must be unique within one trace file
  std::vector<TraceSpan> spans; ///< e.g. TraceRecorder::collect()
  /// Spans lost before export (e.g. TraceRecorder::total_dropped()).
  /// Non-zero counts render as a "dropped spans" instant event so a
  /// truncated trace is visibly truncated in the viewer.
  std::uint64_t dropped_spans = 0;
};

/// Write Chrome trace_event JSON ({"traceEvents": [...]}) covering all
/// `processes`: per process a process_name metadata record plus one
/// complete ("X") event per span, with tid = the span's worker thread
/// and ts/dur in microseconds. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        std::span<const TraceProcess> processes);

}  // namespace djstar::support
