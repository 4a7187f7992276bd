// djstar/engine/headroom.hpp
// Latency advisor. Paper §III-A: "the audio buffer size is configurable
// ... low latency is a key factor [so DJs pick] rather small buffer
// sizes. At the same time timing constraints are tightened." §VI: "The
// goal is to execute as many audio packets as possible considerably
// before the deadline, so headroom is created."
//
// Given the observed APC-time distribution, this advisor estimates the
// miss probability at each candidate buffer size (the deadline scales
// linearly with the buffer) and recommends the smallest size whose
// predicted miss rate stays under a target.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/engine/deadline.hpp"

namespace djstar::engine {

/// Prediction for one candidate buffer size.
struct HeadroomEntry {
  std::size_t buffer_frames = 0;
  double deadline_us = 0;        ///< buffer/SR
  double latency_ms = 0;         ///< one buffer of output latency
  double predicted_miss_rate = 0;  ///< fraction of observed APCs that
                                   ///< would have missed this deadline
  double headroom_us = 0;        ///< deadline - observed p99
};

/// Full advisory report.
struct HeadroomReport {
  std::vector<HeadroomEntry> entries;
  /// Smallest buffer meeting the target miss rate (0 when none does).
  std::size_t recommended_frames = 0;
};

/// Analysis parameters.
struct HeadroomConfig {
  /// Candidate buffer sizes (frames).
  std::vector<std::size_t> candidates{64, 128, 256, 512, 1024};
  /// Acceptable predicted miss rate (misses per cycle).
  double target_miss_rate = 5e-4;  // ~5 per 10k, the paper's observation
  /// Portion of the APC cost that does NOT scale with the buffer size:
  /// scheduling dispatch, dependency management, per-cycle control work.
  /// The remaining (1 - fixed) part is per-frame DSP. This is what makes
  /// small buffers disproportionately expensive — the paper's "smaller
  /// buffer ... has to be filled at a higher frequency".
  double fixed_fraction = 0.25;
  double sample_rate = audio::kSampleRate;
};

/// Analyze a set of observed APC times (microseconds, measured at ONE
/// buffer size whose frames are `measured_frames`). APC cost at another
/// size f is modelled affinely:
///   cost(f) = t * (fixed_fraction + (1 - fixed_fraction) * f / measured)
/// while the deadline scales exactly linearly with f.
HeadroomReport advise_headroom(std::span<const double> apc_times_us,
                               std::size_t measured_frames,
                               const HeadroomConfig& cfg = {});

/// The same analysis over the monitor's window (the APC totals of its
/// last DeadlineMonitor::kWindow cycles).
HeadroomReport advise_headroom(const DeadlineMonitor& monitor,
                               std::size_t measured_frames = audio::kBlockSize,
                               const HeadroomConfig& cfg = {});

}  // namespace djstar::engine
