// djstar/serve/stats.hpp
// Fleet-wide observability for the multi-session host.
//
// Each session keeps its own DeadlineMonitor and latency Histogram; the
// ServeStats registry folds them into fleet aggregates — p50/p99 service
// latency, deadline-miss counts, per-QoS breakdowns — via
// support::Histogram::merge(). Departed sessions (closed, shed or
// tripped) are folded into a retained aggregate at teardown so fleet
// totals never lose history when a session object goes away. The
// lifecycle counts come from the host's djstar_fleet_* counters
// (EngineHost::stats()); ServeStats keeps only what no counter holds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/engine/supervisor.hpp"
#include "djstar/serve/qos.hpp"
#include "djstar/serve/session.hpp"
#include "djstar/support/histogram.hpp"

namespace djstar::serve {

/// One session's row in a fleet snapshot.
struct SessionStatsView {
  SessionId id = kInvalidSession;
  std::string name;
  QoS qos = QoS::kStandard;
  std::uint64_t cycles = 0;
  std::uint64_t misses = 0;
  double miss_rate = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  engine::DegradationLevel level = engine::DegradationLevel::kFull;
  double cost_estimate_us = 0;
  double deadline_us = 0;
};

/// Aggregate over one QoS class (live + departed sessions).
struct QoSAggregate {
  std::uint64_t sessions = 0;  ///< ever admitted
  std::uint64_t shed = 0;
  std::uint64_t cycles = 0;
  std::uint64_t misses = 0;
  double miss_rate = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
};

/// Whole-fleet snapshot.
struct FleetStats {
  // Lifecycle counts: the host's djstar_fleet_* counters.
  std::uint64_t ticks = 0;
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued_peak = 0;  ///< peak queue depth (ServeStats)
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t closed = 0;  ///< active sessions closed by their owner
  std::uint64_t overload_events = 0;
  // Service counters (live + departed).
  std::uint64_t cycles = 0;
  std::uint64_t misses = 0;
  double miss_rate = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  std::array<QoSAggregate, kQoSCount> by_qos{};
  std::vector<SessionStatsView> sessions;  ///< live sessions only
};

/// The registry of what no fleet counter holds: per-QoS admitted and
/// shed counts, the queue's peak depth, and departed sessions' cycles,
/// misses and latency. Owned by EngineHost; all methods run on the host's
/// data-plane thread.
class ServeStats {
 public:
  ServeStats();

  void note_admitted(QoS q) noexcept { ++admitted_by_qos_[rank(q)]; }
  void note_queued_depth(std::size_t depth) noexcept;

  /// Fold a departing session (closed, shed or tripped) into the retained
  /// aggregate; its histogram merges into the per-QoS retained one.
  void retire(const Session& s, bool was_shed);

  /// Build the snapshot over the currently live sessions plus the
  /// retained aggregate of departed ones. The lifecycle counts other
  /// than queued_peak stay zero; EngineHost::stats() fills them in.
  FleetStats aggregate(std::span<const Session* const> live) const;

 private:
  struct Retained {
    std::uint64_t cycles = 0;
    std::uint64_t misses = 0;
    support::Histogram latency{0.0, 4.0 * audio::kDeadlineUs, kLatencyBins};
  };

  std::uint64_t queued_peak_ = 0;
  std::array<std::uint64_t, kQoSCount> admitted_by_qos_{};
  std::array<std::uint64_t, kQoSCount> shed_by_qos_{};
  std::array<Retained, kQoSCount> retained_{};
};

}  // namespace djstar::serve
