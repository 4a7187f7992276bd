#include "djstar/engine/headroom.hpp"

#include <algorithm>

#include "djstar/support/stats.hpp"

namespace djstar::engine {

HeadroomReport advise_headroom(std::span<const double> apc_times_us,
                               std::size_t measured_frames,
                               const HeadroomConfig& cfg) {
  HeadroomReport report;
  if (apc_times_us.empty() || measured_frames == 0) return report;
  const double p99 = support::quantile(apc_times_us, 0.99);

  for (std::size_t frames : cfg.candidates) {
    HeadroomEntry e;
    e.buffer_frames = frames;
    e.deadline_us =
        1e6 * static_cast<double>(frames) / cfg.sample_rate;
    e.latency_ms = e.deadline_us / 1000.0;

    // Affine cost model: the fixed per-cycle part stays, the per-frame
    // part scales with the buffer.
    const double frame_ratio = static_cast<double>(frames) /
                               static_cast<double>(measured_frames);
    const double scale =
        cfg.fixed_fraction + (1.0 - cfg.fixed_fraction) * frame_ratio;
    // What-if sweep: would each observed cycle, rescaled, have missed
    // this candidate's deadline?
    std::size_t misses = 0;
    for (double t : apc_times_us) {
      if (t * scale > e.deadline_us) ++misses;
    }
    e.predicted_miss_rate = static_cast<double>(misses) /
                            static_cast<double>(apc_times_us.size());
    e.headroom_us = e.deadline_us - p99 * scale;
    report.entries.push_back(e);
  }

  std::sort(report.entries.begin(), report.entries.end(),
            [](const HeadroomEntry& a, const HeadroomEntry& b) {
              return a.buffer_frames < b.buffer_frames;
            });
  for (const auto& e : report.entries) {
    if (e.predicted_miss_rate <= cfg.target_miss_rate) {
      report.recommended_frames = e.buffer_frames;
      break;
    }
  }
  return report;
}

HeadroomReport advise_headroom(const DeadlineMonitor& monitor,
                               std::size_t measured_frames,
                               const HeadroomConfig& cfg) {
  return advise_headroom(monitor.total_samples(), measured_frames, cfg);
}

}  // namespace djstar::engine
