// djstar/engine/deadline.hpp
// Cycle accounting against the real-time constraint (paper §III-A/§VI):
// one audio packet of 128 samples at 44.1 kHz every 2.9 ms, of which the
// task graph may use at most 2.1 ms after TP/GP/VC overheads.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/support/stats.hpp"

namespace djstar::engine {

/// Phase timings of one audio processing cycle, in microseconds.
/// T(APC) = T(TP) + T(GP) + T(Graph) + T(VC)   (paper §VI).
///
/// The engine runs TP and GP as four deck jobs inside the graph's
/// dispatch and splits its wall time back into three parts: TP is the
/// union of the jobs' TP intervals, GP the union of their GP intervals
/// outside it, and Graph the rest. The parts add up to the APC, and on
/// one thread they are the paper's sequential phases.
struct CycleBreakdown {
  double tp_us = 0;     ///< timecode processing
  double gp_us = 0;     ///< graph preprocessing (time stretch, buffers)
  double graph_us = 0;  ///< task graph execution, the deck jobs excluded
  double vc_us = 0;     ///< various calculations (tempo, accounting)

  double total_us() const noexcept {
    return tp_us + gp_us + graph_us + vc_us;
  }
};

/// The one accountant of a cycle owner (an AudioEngine or a hosted
/// serve::Session): add() judges each cycle against its budget, and every
/// consumer (supervisor, telemetry, profiler, SLO trackers, fleet
/// counters) takes that verdict. Each cycle is also attributed to the
/// degradation level it ran at (level 0 = full quality), so "how long did
/// we spend degraded, and how did those cycles perform" falls straight
/// out of the monitor. The graph and total times of the last kWindow
/// cycles are kept in storage allocated at construction, so add() never
/// allocates.
class DeadlineMonitor {
 public:
  /// Maximum degradation levels tracked (DegradationLevel fits with room).
  static constexpr unsigned kMaxLevels = 8;
  /// Cycles whose graph and total times the monitor keeps.
  static constexpr std::size_t kWindow = 4096;

  explicit DeadlineMonitor(double deadline_us = audio::kDeadlineUs);

  /// Record a cycle attributed to `level` (clamped to kMaxLevels - 1) and
  /// judge it: a cycle misses when its total exceeds `budget_us`. Returns
  /// the verdict. An engine's budget is its deadline (the overload
  /// without a budget); a session's is the time from its fleet tick's
  /// start to its packet's absolute deadline.
  bool add(const CycleBreakdown& c, unsigned level, double budget_us);
  bool add(const CycleBreakdown& c, unsigned level = 0) {
    return add(c, level, deadline_us_);
  }
  /// Clear every count and the window; the window's storage stays.
  void reset();

  std::size_t cycles() const noexcept { return cycles_; }
  std::size_t misses() const noexcept { return misses_; }
  double miss_rate() const noexcept {
    return cycles_ ? static_cast<double>(misses_) / static_cast<double>(cycles_)
                   : 0.0;
  }
  double deadline_us() const noexcept { return deadline_us_; }

  const support::OnlineStats& tp() const noexcept { return tp_; }
  const support::OnlineStats& gp() const noexcept { return gp_; }
  const support::OnlineStats& graph() const noexcept { return graph_; }
  const support::OnlineStats& vc() const noexcept { return vc_; }
  const support::OnlineStats& total() const noexcept { return total_; }

  /// p99 of the window's APC totals (support::quantile; 0 before the
  /// first cycle). Sorts a copy: call it between cycles, not on the audio
  /// path.
  double p99() const;
  /// Worst APC total seen since construction or reset() (O(1)).
  double max_us() const noexcept { return total_.max(); }

  // ---- per-degradation-level accounting ----
  std::size_t level_cycles(unsigned level) const noexcept {
    return level < kMaxLevels ? level_cycles_[level] : 0;
  }
  std::size_t level_misses(unsigned level) const noexcept {
    return level < kMaxLevels ? level_misses_[level] : 0;
  }
  /// APC totals of cycles run at `level` (count 0 when never visited).
  const support::OnlineStats& level_total(unsigned level) const noexcept {
    return level_total_[level < kMaxLevels ? level : kMaxLevels - 1];
  }

  /// Task-graph times of the last min(cycles(), kWindow) cycles. Once the
  /// window is full each cycle overwrites the oldest, so the order is
  /// chronological only until then.
  const std::vector<double>& graph_samples() const noexcept {
    return graph_samples_;
  }
  /// APC totals of the same cycles, in the same slots.
  const std::vector<double>& total_samples() const noexcept {
    return total_samples_;
  }

 private:
  double deadline_us_;
  std::size_t cycles_ = 0;
  std::size_t misses_ = 0;
  support::OnlineStats tp_, gp_, graph_, vc_, total_;
  std::vector<double> graph_samples_;
  std::vector<double> total_samples_;
  std::array<std::size_t, kMaxLevels> level_cycles_{};
  std::array<std::size_t, kMaxLevels> level_misses_{};
  std::array<support::OnlineStats, kMaxLevels> level_total_{};
};

}  // namespace djstar::engine
