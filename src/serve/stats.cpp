#include "djstar/serve/stats.hpp"

#include <algorithm>

namespace djstar::serve {

ServeStats::ServeStats() = default;

void ServeStats::note_queued_depth(std::size_t depth) noexcept {
  queued_peak_ = std::max(queued_peak_, static_cast<std::uint64_t>(depth));
}

void ServeStats::retire(const Session& s, bool was_shed) {
  const unsigned q = rank(s.qos());
  if (was_shed) ++shed_by_qos_[q];
  Retained& r = retained_[q];
  const SessionCounters c = s.counters();
  r.cycles += c.cycles;
  r.misses += c.misses;
  r.latency.merge(s.latency_histogram());
}

FleetStats ServeStats::aggregate(std::span<const Session* const> live) const {
  FleetStats f;
  f.queued_peak = queued_peak_;

  // Per-QoS: retained departed sessions + live ones, merged into one
  // histogram per class, then one fleet-wide histogram.
  std::array<support::Histogram, kQoSCount> qos_hist{
      support::Histogram(0.0, 4.0 * audio::kDeadlineUs, kLatencyBins),
      support::Histogram(0.0, 4.0 * audio::kDeadlineUs, kLatencyBins),
      support::Histogram(0.0, 4.0 * audio::kDeadlineUs, kLatencyBins)};
  for (unsigned q = 0; q < kQoSCount; ++q) {
    const Retained& r = retained_[q];
    f.by_qos[q].sessions = admitted_by_qos_[q];
    f.by_qos[q].shed = shed_by_qos_[q];
    f.by_qos[q].cycles = r.cycles;
    f.by_qos[q].misses = r.misses;
    qos_hist[q].merge(r.latency);
  }
  for (const Session* s : live) {
    const unsigned q = rank(s->qos());
    const SessionCounters c = s->counters();
    f.by_qos[q].cycles += c.cycles;
    f.by_qos[q].misses += c.misses;
    qos_hist[q].merge(s->latency_histogram());

    SessionStatsView v;
    v.id = s->id();
    v.name = s->name();
    v.qos = s->qos();
    v.cycles = c.cycles;
    v.misses = c.misses;
    v.miss_rate = v.cycles ? static_cast<double>(v.misses) /
                                 static_cast<double>(v.cycles)
                           : 0.0;
    v.p50_latency_us = s->latency_histogram().quantile(0.50);
    v.p99_latency_us = s->latency_histogram().quantile(0.99);
    v.level = s->supervisor().level();
    v.cost_estimate_us = s->cost_estimate_us();
    v.deadline_us = s->deadline_us();
    f.sessions.push_back(std::move(v));
  }

  support::Histogram fleet(0.0, 4.0 * audio::kDeadlineUs, kLatencyBins);
  for (unsigned q = 0; q < kQoSCount; ++q) {
    QoSAggregate& a = f.by_qos[q];
    a.miss_rate = a.cycles ? static_cast<double>(a.misses) /
                                 static_cast<double>(a.cycles)
                           : 0.0;
    a.p50_latency_us = qos_hist[q].quantile(0.50);
    a.p99_latency_us = qos_hist[q].quantile(0.99);
    f.cycles += a.cycles;
    f.misses += a.misses;
    fleet.merge(qos_hist[q]);
  }
  f.miss_rate = f.cycles ? static_cast<double>(f.misses) /
                               static_cast<double>(f.cycles)
                         : 0.0;
  f.p50_latency_us = fleet.quantile(0.50);
  f.p99_latency_us = fleet.quantile(0.99);
  return f;
}

}  // namespace djstar::serve
