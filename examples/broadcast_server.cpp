// examples/broadcast_server.cpp
// A broadcast-style serving host: many independent audio channels
// multiplexed onto one shared worker pool (DESIGN.md §9).
//
//   1. open an EngineHost sized to the machine,
//   2. submit a mixed-QoS channel lineup (on-air realtime feeds, studio
//      standard monitors, besteffort preview streams),
//   3. churn channels mid-run — previews come and go while the on-air
//      feeds keep running,
//   4. print the fleet stats table (per-QoS hit rates, latency
//      quantiles, shed counts) and the admission log,
//   5. export the fleet schedule as Chrome trace JSON (one pid per
//      channel, one tid per worker — load chrome://tracing).
#include <cstdio>
#include <string>
#include <vector>

#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"

namespace ds = djstar::serve;

namespace {

ds::SessionSpec make_channel(const char* kind, unsigned n, ds::QoS qos,
                             double node_cost_us) {
  ds::SyntheticSpec s;
  s.name = std::string(kind) + "-" + std::to_string(n);
  s.qos = qos;
  s.width = 4;
  s.depth = 3;
  s.node_cost_us = node_cost_us;
  s.seed = 7 * n + 1;
  return ds::make_synthetic_session(s);
}

}  // namespace

int main() {
  ds::HostConfig cfg;
  cfg.threads = 0;  // DJSTAR_THREADS or hardware concurrency
  ds::EngineHost host(cfg);
  host.enable_flight();  // each channel's span ring, for the trace export
  std::printf("broadcast host: %u workers, admission bound %.2f\n\n",
              host.threads(), cfg.admission.utilization_bound);

  // ---- 2. The opening lineup: two on-air feeds, one studio monitor,
  // and a pile of preview streams that the admission test parks or
  // rejects once the density budget is spent. ----
  std::vector<ds::SessionId> on_air, previews;
  for (unsigned n = 0; n < 2; ++n) {
    on_air.push_back(
        host.submit(make_channel("on-air", n, ds::QoS::kRealtime, 30.0)));
  }
  host.submit(make_channel("monitor", 0, ds::QoS::kStandard, 25.0));
  for (unsigned n = 0; n < 6; ++n) {
    previews.push_back(
        host.submit(make_channel("preview", n, ds::QoS::kBestEffort, 20.0)));
  }
  host.run_fleet_cycles(100);

  // ---- 3. Mid-run churn: previews hang up, new ones dial in. The
  // on-air feeds never stop. ----
  for (unsigned round = 0; round < 4; ++round) {
    if (!previews.empty()) {
      host.close(previews.front());
      previews.erase(previews.begin());
    }
    previews.push_back(host.submit(
        make_channel("preview", 100 + round, ds::QoS::kBestEffort, 20.0)));
    host.run_fleet_cycles(50);
  }

  // ---- 4. The fleet stats table. ----
  const ds::FleetStats f = host.stats();
  std::printf("after %llu ticks: submitted %llu, admitted %llu, "
              "queued peak %llu, rejected %llu, shed %llu\n",
              static_cast<unsigned long long>(f.ticks),
              static_cast<unsigned long long>(f.submitted),
              static_cast<unsigned long long>(f.admitted),
              static_cast<unsigned long long>(f.queued_peak),
              static_cast<unsigned long long>(f.rejected),
              static_cast<unsigned long long>(f.shed));
  std::printf("active %zu (density %.3f), parked %zu\n\n",
              host.active_sessions(), host.active_density(),
              host.queued_sessions());

  std::printf("  %-10s %-9s %-8s %-9s %-9s %-6s\n", "class", "cycles",
              "hit", "p50_us", "p99_us", "shed");
  for (ds::QoS q : {ds::QoS::kRealtime, ds::QoS::kStandard,
                    ds::QoS::kBestEffort}) {
    const ds::QoSAggregate& a = f.by_qos[ds::rank(q)];
    std::printf("  %-10s %-9llu %-8.4f %-9.1f %-9.1f %-6llu\n",
                std::string(ds::to_string(q)).c_str(),
                static_cast<unsigned long long>(a.cycles),
                a.cycles ? 1.0 - a.miss_rate : 1.0, a.p50_latency_us,
                a.p99_latency_us, static_cast<unsigned long long>(a.shed));
  }

  std::printf("\n  %-10s %-12s %-8s %-9s %-9s\n", "channel", "state",
              "cycles", "p99_us", "level");
  for (const ds::SessionStatsView& s : f.sessions) {
    std::printf("  %-10s %-12s %-8llu %-9.1f %d\n", s.name.c_str(), "active",
                static_cast<unsigned long long>(s.cycles), s.p99_latency_us,
                static_cast<int>(s.level));
  }

  std::printf("\nadmission log (%zu decisions):\n",
              host.admission_log().size());
  for (const ds::AdmissionRecord& r : host.admission_log()) {
    std::printf("  tick %-5llu session %-3llu -> %-8s (projected density"
                " %.3f / bound %.2f)\n",
                static_cast<unsigned long long>(r.tick),
                static_cast<unsigned long long>(r.id),
                std::string(ds::to_string(r.verdict)).c_str(),
                r.projected_density, r.bound);
  }

  // The on-air feeds must have run every tick and never been shed.
  for (ds::SessionId id : on_air) {
    if (host.session_state(id) != ds::SessionState::kActive) {
      std::fprintf(stderr, "FAILED: on-air channel %llu not active\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
  }

  // ---- 5. Chrome trace export. ----
  const char* trace = "broadcast_schedule.json";
  if (host.write_chrome_trace(trace)) {
    std::printf("\nwrote %s (open in chrome://tracing)\n", trace);
  }
  return 0;
}
