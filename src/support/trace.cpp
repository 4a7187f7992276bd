#include "djstar/support/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace djstar::support {
namespace {

// trace_event names: "run n12" for node spans, the bare kind otherwise.
void append_span_name(std::string& out, const TraceSpan& s) {
  out += to_string(s.kind);
  if (s.node >= 0) {
    char buf[16];
    std::snprintf(buf, sizeof buf, " n%d", s.node);
    out += buf;
  }
}

// JSON string escaping for names that may come from user-supplied
// session labels: quotes, backslashes, and control characters are
// escaped (not stripped), so the trace stays loadable and the name stays
// recognizable.
void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_event(std::string& out, const TraceSpan& s, std::uint32_t pid,
                  bool& first) {
  if (!first) out += ",\n";
  first = false;
  char buf[224];
  std::string name;
  append_span_name(name, s);
  // Zero-length spans still render in Perfetto with a small epsilon.
  const double dur = std::max(s.duration_us(), 0.001);
  // steal_from renders as an optional args entry so traces written before
  // the field existed (and spans that were not stolen) are byte-identical
  // to the old format.
  char steal[48] = "";
  if (s.steal_from >= 0) {
    std::snprintf(steal, sizeof steal, ",\"args\":{\"steal_from\":%" PRId32 "}",
                  s.steal_from);
  }
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"pid\":%" PRIu32 ",\"tid\":%" PRIu32 "%s}",
                name.c_str(), to_string(s.kind), s.begin_us, dur, pid,
                s.thread, steal);
  out += buf;
}

void append_process_meta(std::string& out, const TraceProcess& p,
                         bool& first) {
  if (!first) out += ",\n";
  first = false;
  std::string safe;
  append_json_escaped(safe, p.name);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                ",\"args\":{\"name\":\"%s\"}}",
                p.pid, safe.c_str());
  out += buf;
}

// Truncation marker: an instant event at ts 0 naming the loss, so a
// Perfetto view of a truncated trace says so instead of silently showing
// fewer spans.
void append_dropped_note(std::string& out, const TraceProcess& p,
                         bool& first) {
  if (!first) out += ",\n";
  first = false;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"dropped %llu spans (lane full)\",\"ph\":\"i\","
                "\"ts\":0,\"pid\":%" PRIu32 ",\"tid\":0,\"s\":\"p\"}",
                static_cast<unsigned long long>(p.dropped_spans), p.pid);
  out += buf;
}

}  // namespace

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kRun: return "run";
    case SpanKind::kBusyWait: return "busy-wait";
    case SpanKind::kSleep: return "sleep";
    case SpanKind::kSteal: return "steal";
    case SpanKind::kOverhead: return "overhead";
  }
  return "?";
}

void TraceRecorder::arm(std::uint32_t threads, std::size_t capacity) {
  lanes_.assign(threads, Lane{});
  for (auto& lane : lanes_) {
    lane.capacity = capacity;
    lane.spans.clear();
    lane.spans.reserve(capacity);
  }
  armed_ = true;
}

void TraceRecorder::disarm() noexcept {
  armed_ = false;
  lanes_.clear();
}

void TraceRecorder::record(std::uint32_t thread,
                           const TraceSpan& span) noexcept {
  if (!armed_ || thread >= lanes_.size()) return;
  Lane& lane = lanes_[thread];
  if (lane.spans.size() >= lane.capacity) {
    ++lane.dropped;  // full: drop, but never silently
    return;
  }
  lane.spans.push_back(span);
}

void TraceRecorder::clear_spans() noexcept {
  for (auto& lane : lanes_) {
    lane.spans.clear();  // capacity() is retained; record() stays in budget
    lane.dropped = 0;
  }
}

std::uint64_t TraceRecorder::dropped(std::uint32_t thread) const noexcept {
  return thread < lanes_.size() ? lanes_[thread].dropped : 0;
}

std::uint64_t TraceRecorder::total_dropped() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& lane : lanes_) sum += lane.dropped;
  return sum;
}

std::vector<TraceSpan> TraceRecorder::collect() const {
  std::vector<TraceSpan> all;
  collect_into(all);
  return all;
}

void TraceRecorder::collect_into(std::vector<TraceSpan>& out) const {
  out.clear();
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.spans.size();
  out.reserve(n);
  for (const auto& lane : lanes_) {
    out.insert(out.end(), lane.spans.begin(), lane.spans.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceSpan& a, const TraceSpan& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.begin_us < b.begin_us;
  });
}

bool TraceRecorder::write_chrome_trace(const std::string& path,
                                       std::uint32_t pid,
                                       std::string_view process_name) const {
  TraceProcess p;
  p.name = std::string(process_name);
  p.pid = pid;
  p.spans = collect();
  p.dropped_spans = total_dropped();
  const TraceProcess procs[] = {std::move(p)};
  return djstar::support::write_chrome_trace(path, procs);
}

bool write_chrome_trace(const std::string& path,
                        std::span<const TraceProcess> processes) {
  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceProcess& p : processes) {
    append_process_meta(out, p, first);
    if (p.dropped_spans > 0) append_dropped_note(out, p, first);
  }
  for (const TraceProcess& p : processes) {
    for (const TraceSpan& s : p.spans) {
      append_event(out, s, p.pid, first);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << out;
  return static_cast<bool>(f);
}

}  // namespace djstar::support
