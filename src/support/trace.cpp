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

}  // namespace

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kRun: return "run";
    case SpanKind::kBusyWait: return "busy-wait";
    case SpanKind::kSleep: return "sleep";
    case SpanKind::kSteal: return "steal";
  }
  return "?";
}

bool write_chrome_trace(const std::string& path,
                        std::span<const TraceProcess> processes) {
  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceProcess& p : processes) {
    append_process_meta(out, p, first);
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
