// djstar/support/ascii_chart.hpp
// Console renderings of the paper's figures: histograms (Fig. 9),
// cumulative histograms (Fig. 10), Gantt charts (Figs. 4/11/12), and
// simple labelled bar charts (Fig. 8).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "djstar/support/histogram.hpp"
#include "djstar/support/trace.hpp"

namespace djstar::support {

/// Render a histogram as rows of '#', one row per bin, with bin edges and
/// counts. width = maximum bar width in characters.
std::string render_histogram(const Histogram& h, std::size_t width = 60,
                             const std::string& title = {});

/// Render the cumulative version of a histogram (running total per bin).
std::string render_cumulative(const Histogram& h, std::size_t width = 60,
                              const std::string& title = {});

/// One labelled value in a bar chart.
struct Bar {
  std::string label;
  double value = 0;
};

/// Render labelled horizontal bars scaled to the maximum value.
std::string render_bars(std::span<const Bar> bars, std::size_t width = 50,
                        const std::string& title = {},
                        const std::string& unit = {});

/// Render per-thread Gantt lanes from trace spans. Each lane is a row of
/// characters; node runs show the node id (or '#'), busy-wait shows '.',
/// sleep shows ' ', steal probes show '~'.
/// `total_us` <= 0 auto-scales to the last span end.
std::string render_gantt(std::span<const TraceSpan> spans,
                         std::size_t width = 100, double total_us = 0,
                         const std::string& title = {});

/// Render a concurrency profile (active processors over time), the shape
/// shown in paper Fig. 4: time buckets on the x axis, active count as bars.
std::string render_profile(std::span<const double> times_us,
                           std::span<const int> active,
                           std::size_t width = 80,
                           const std::string& title = {});

}  // namespace djstar::support
