#include "djstar/support/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace djstar::support {
namespace {

std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

void append_title(std::ostringstream& os, const std::string& title) {
  if (!title.empty()) {
    os << title << '\n';
    os << std::string(title.size(), '-') << '\n';
  }
}

}  // namespace

std::string render_histogram(const Histogram& h, std::size_t width,
                             const std::string& title) {
  std::ostringstream os;
  append_title(os, title);
  const std::size_t peak = std::max<std::size_t>(h.max_count(), 1);
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    const std::size_t c = h.count(i);
    const auto bar =
        static_cast<std::size_t>(std::llround(static_cast<double>(c) * static_cast<double>(width) /
                                              static_cast<double>(peak)));
    char edge[48];
    std::snprintf(edge, sizeof edge, "[%8.3f,%8.3f) ", h.bin_lo(i), h.bin_hi(i));
    os << edge << std::string(bar, '#') << ' ' << c << '\n';
  }
  if (h.underflow()) os << "underflow: " << h.underflow() << '\n';
  if (h.overflow()) os << "overflow:  " << h.overflow() << '\n';
  os << "total: " << h.total() << '\n';
  return os.str();
}

std::string render_cumulative(const Histogram& h, std::size_t width,
                              const std::string& title) {
  std::ostringstream os;
  append_title(os, title);
  const std::size_t total = std::max<std::size_t>(h.total(), 1);
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    const std::size_t c = h.cumulative(i);
    const auto bar =
        static_cast<std::size_t>(std::llround(static_cast<double>(c) * static_cast<double>(width) /
                                              static_cast<double>(total)));
    char edge[48];
    std::snprintf(edge, sizeof edge, "<=%8.3f ", h.bin_hi(i));
    const double pct = 100.0 * static_cast<double>(c) / static_cast<double>(total);
    os << edge << std::string(bar, '#') << ' ' << c << " (" << fmt(pct, 1)
       << "%)\n";
  }
  os << "total: " << h.total() << '\n';
  return os.str();
}

std::string render_bars(std::span<const Bar> bars, std::size_t width,
                        const std::string& title, const std::string& unit) {
  std::ostringstream os;
  append_title(os, title);
  double peak = 0;
  std::size_t label_w = 0;
  for (const auto& b : bars) {
    peak = std::max(peak, b.value);
    label_w = std::max(label_w, b.label.size());
  }
  if (peak <= 0) peak = 1;
  for (const auto& b : bars) {
    const auto w = static_cast<std::size_t>(
        std::llround(b.value * static_cast<double>(width) / peak));
    os << b.label << std::string(label_w - b.label.size() + 1, ' ') << '|'
       << std::string(w, '#') << ' ' << fmt(b.value) << ' ' << unit << '\n';
  }
  return os.str();
}

std::string render_gantt(std::span<const TraceSpan> spans, std::size_t width,
                         double total_us, const std::string& title) {
  std::ostringstream os;
  append_title(os, title);
  if (spans.empty()) return os.str() + "(no spans)\n";

  std::uint32_t threads = 0;
  double end = total_us;
  for (const auto& s : spans) {
    threads = std::max(threads, s.thread + 1);
    end = std::max(end, s.end_us);
  }
  if (end <= 0) end = 1;
  const double us_per_col = end / static_cast<double>(width);

  for (std::uint32_t t = 0; t < threads; ++t) {
    std::string row(width, ' ');
    for (const auto& s : spans) {
      if (s.thread != t) continue;
      auto c0 = static_cast<std::size_t>(s.begin_us / us_per_col);
      auto c1 = static_cast<std::size_t>(s.end_us / us_per_col);
      c0 = std::min(c0, width - 1);
      c1 = std::min(std::max(c1, c0 + 1), width);
      char fill = '?';
      switch (s.kind) {
        case SpanKind::kRun: fill = '#'; break;
        case SpanKind::kBusyWait: fill = '.'; break;
        case SpanKind::kSleep: fill = ' '; break;
        case SpanKind::kSteal: fill = '~'; break;
      }
      for (std::size_t c = c0; c < c1; ++c) row[c] = fill;
      // Stamp the node id at the start of a run span when it fits.
      if (s.kind == SpanKind::kRun && s.node >= 0) {
        const std::string id = std::to_string(s.node);
        if (c0 + id.size() <= c1) {
          for (std::size_t k = 0; k < id.size(); ++k) row[c0 + k] = id[k];
        }
      }
    }
    os << 'T' << t << " |" << row << "|\n";
  }
  os << "    0" << std::string(width > 10 ? width - 8 : 0, ' ')
     << fmt(end, 1) << " us\n";
  os << "    legend: digits/# = run, . = busy-wait, ~ = steal probe, "
        "blank = sleeping\n";
  return os.str();
}

std::string render_profile(std::span<const double> times_us,
                           std::span<const int> active, std::size_t width,
                           const std::string& title) {
  std::ostringstream os;
  append_title(os, title);
  const std::size_t n = std::min(times_us.size(), active.size());
  if (n == 0) return os.str() + "(empty profile)\n";
  int peak = 1;
  for (std::size_t i = 0; i < n; ++i) peak = std::max(peak, active[i]);
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::size_t>(std::llround(
        static_cast<double>(active[i]) * static_cast<double>(width) / peak));
    char lbl[40];
    std::snprintf(lbl, sizeof lbl, "%8.1f us ", times_us[i]);
    os << lbl << std::string(w, '#') << ' ' << active[i] << '\n';
  }
  return os.str();
}

}  // namespace djstar::support
