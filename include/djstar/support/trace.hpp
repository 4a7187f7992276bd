// djstar/support/trace.hpp
// Per-thread spans for schedule visualization (paper Fig. 11) and the
// Chrome trace writer.
//
// Executors record one TraceSpan per node execution (plus the wait spans
// of their strategy) into a FlightRecorder (flight.hpp), the one span
// sink; exports turn its spans into Chrome trace_event JSON here.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace djstar::support {

/// What a worker thread was doing during a span of time.
enum class SpanKind : std::uint8_t {
  kRun,       ///< executing a graph node
  kBusyWait,  ///< spinning on an unmet dependency (paper: gray boxes)
  kSleep,     ///< parked on a condition variable (paper: white areas)
  kSteal,     ///< probing other threads' deques
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

/// One process (pid) worth of spans for a combined multi-session trace.
/// The serve layer emits one TraceProcess per hosted session so a fleet
/// schedule renders as parallel process tracks in Perfetto.
struct TraceProcess {
  std::string name;             ///< process_name metadata shown in the UI
  std::uint32_t pid = 0;        ///< must be unique within one trace file
  std::vector<TraceSpan> spans; ///< e.g. FlightRecorder::collect_last()
};

/// Write Chrome trace_event JSON ({"traceEvents": [...]}) covering all
/// `processes`: per process a process_name metadata record plus one
/// complete ("X") event per span, with tid = the span's worker thread
/// and ts/dur in microseconds. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        std::span<const TraceProcess> processes);

}  // namespace djstar::support
