// Tests for the serve host's telemetry surface: fleet metric counters
// that agree exactly with FleetStats, the structured journal of
// admission/lifecycle events, the metrics exporters (file, background
// thread, DJSTAR_METRICS), and the shared flight recorder.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "djstar/audio/buffer.hpp"
#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"

namespace ds = djstar::serve;
namespace sup = djstar::support;

using djstar_test::ScopedEnv;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

ds::SessionSpec light_session(ds::QoS qos, double density,
                              double deadline_us = djstar::audio::kDeadlineUs) {
  ds::SyntheticSpec spec;
  spec.name = "light";
  spec.qos = qos;
  spec.deadline_us = deadline_us;
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 0.5;
  ds::SessionSpec s = ds::make_synthetic_session(spec);
  s.cost_estimate_us = density * deadline_us;
  return s;
}

ds::HostConfig small_host(double bound = 0.65) {
  ds::HostConfig cfg;
  cfg.threads = 2;
  cfg.admission.utilization_bound = bound;
  return cfg;
}

std::uint64_t metric_value(const sup::MetricsRegistry& reg,
                           const std::string& name) {
  for (const sup::MetricValue& m : reg.snapshot().metrics) {
    if (m.name == name) return std::uint64_t(m.value);
  }
  ADD_FAILURE() << "metric not found: " << name;
  return ~std::uint64_t(0);
}

}  // namespace

TEST(HostMetrics, FleetCountersAgreeWithStatsExactly) {
  ds::HostConfig cfg = small_host();
  cfg.admission.queue_when_full = false;  // over-bound => rejected
  // Two failed cycles trip a breaker; the backoff outlasts the test, so
  // the tripped session stays parked.
  cfg.breaker.trip_failures = 2;
  cfg.breaker.backoff_ms = 1e6;
  ds::EngineHost host(cfg);

  const ds::SessionId a = host.submit(light_session(ds::QoS::kStandard, 0.1));
  const ds::SessionId b = host.submit(light_session(ds::QoS::kBestEffort, 0.1));
  const ds::SessionId t = host.submit(light_session(ds::QoS::kStandard, 0.1));
  host.submit(light_session(ds::QoS::kStandard, 5.0));  // rejected
  host.run_fleet_cycles(20);
  host.close(b);
  // Every cycle of `t` now throws at its source: a failed cycle each.
  djstar::core::chaos::FaultPlan plan;
  plan.throw_permille = 1000;
  plan.targets = {0};
  ASSERT_NE(host.session(t), nullptr);
  host.session(t)->arm_faults(plan);
  host.run_fleet_cycles(10);
  ASSERT_EQ(host.session_state(a), ds::SessionState::kActive);
  ASSERT_EQ(host.session_state(t), ds::SessionState::kTripped);

  const ds::FleetStats fs = host.stats();
  const sup::MetricsRegistry& reg = host.metrics();
  EXPECT_EQ(metric_value(reg, "djstar_fleet_ticks_total"), fs.ticks);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_sessions_submitted_total"),
            fs.submitted);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_sessions_admitted_total"),
            fs.admitted);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_sessions_rejected_total"),
            fs.rejected);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_sessions_closed_total"),
            fs.closed);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_sessions_shed_total"), fs.shed);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_overloads_total"),
            fs.overload_events);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_cycles_total"), fs.cycles);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_deadline_misses_total"),
            fs.misses);
  // Sanity on magnitudes: 30 ticks; `a` active throughout, `b` closed by
  // its owner, `t` tripped. A trip is neither a close nor a shed: it
  // counts only as a trip, while its cycles stay in the fleet totals.
  EXPECT_EQ(fs.ticks, 30u);
  EXPECT_EQ(fs.submitted, 4u);
  EXPECT_EQ(fs.admitted, 3u);
  EXPECT_EQ(fs.rejected, 1u);
  EXPECT_EQ(fs.closed, 1u);
  EXPECT_EQ(fs.shed, 0u);
  EXPECT_EQ(metric_value(reg, "djstar_fleet_sessions_tripped_total"), 1u);
  EXPECT_EQ(fs.cycles, 30u + 20u + 22u);
}

TEST(HostMetrics, GaugesTrackFleetShape) {
  ds::EngineHost host(small_host());
  host.submit(light_session(ds::QoS::kStandard, 0.2));
  host.run_fleet_cycles(2);
  const sup::MetricsSnapshot snap = host.metrics().snapshot();
  double active = -1, density = -1;
  for (const sup::MetricValue& m : snap.metrics) {
    if (m.name == "djstar_fleet_active_sessions") active = m.value;
    if (m.name == "djstar_fleet_active_density") density = m.value;
  }
  EXPECT_EQ(active, 1.0);
  EXPECT_NEAR(density, 0.2, 1e-9);
}

TEST(HostMetrics, JournalRecordsAdmissionLifecycle) {
  ds::HostConfig cfg = small_host();
  cfg.admission.queue_when_full = false;
  ds::EngineHost host(cfg);
  const ds::SessionId ok = host.submit(light_session(ds::QoS::kStandard, 0.1));
  const ds::SessionId no = host.submit(light_session(ds::QoS::kStandard, 5.0));
  host.run_fleet_cycle();
  host.close(ok);
  host.run_fleet_cycle();

  bool admit = false, reject = false, closed = false;
  for (const sup::Event& e : host.journal().drain_all()) {
    if (e.kind == sup::EventKind::kAdmit &&
        e.a == std::int64_t(ok)) admit = true;
    if (e.kind == sup::EventKind::kReject &&
        e.a == std::int64_t(no)) reject = true;
    if (e.kind == sup::EventKind::kSessionClosed &&
        e.a == std::int64_t(ok)) closed = true;
  }
  EXPECT_TRUE(admit);
  EXPECT_TRUE(reject);
  EXPECT_TRUE(closed);
}

TEST(HostMetrics, JournalRecordsQueueParks) {
  ds::EngineHost host(small_host());  // queue_when_full = true
  host.submit(light_session(ds::QoS::kStandard, 0.5));
  const ds::SessionId parked =
      host.submit(light_session(ds::QoS::kStandard, 0.5));
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(parked), ds::SessionState::kQueued);
  bool park = false;
  for (const sup::Event& e : host.journal().drain_all()) {
    if (e.kind == sup::EventKind::kQueuePark &&
        e.a == std::int64_t(parked)) park = true;
  }
  EXPECT_TRUE(park);
}

TEST(HostMetrics, WriteMetricsProducesPrometheusExposition) {
  ds::EngineHost host(small_host());
  host.submit(light_session(ds::QoS::kStandard, 0.1));
  host.run_fleet_cycles(5);
  const std::string path = testing::TempDir() + "/host_metrics.prom";
  ASSERT_TRUE(host.write_metrics(path));
  const std::string text = slurp(path);
  EXPECT_NE(text.find("# TYPE djstar_fleet_ticks_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("djstar_fleet_ticks_total 5\n"), std::string::npos);
  EXPECT_FALSE(host.write_metrics("/nonexistent-dir/m.prom"));
  std::remove(path.c_str());
}

TEST(HostMetrics, BackgroundExporterRewritesTheFile) {
  ds::EngineHost host(small_host());
  const std::string path = testing::TempDir() + "/host_exporter.prom";
  std::remove(path.c_str());
  host.start_metrics_exporter(path, 5.0);
  for (int i = 0; i < 200 && !file_exists(path); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  host.stop_metrics_exporter();
  ASSERT_TRUE(file_exists(path));
  EXPECT_NE(slurp(path).find("djstar_fleet_ticks_total"), std::string::npos);
  std::remove(path.c_str());
}

TEST(HostMetrics, EnvMetricsVariableStartsExporter) {
  ScopedEnv guard("DJSTAR_METRICS", nullptr);
  const std::string path = testing::TempDir() + "/host_env_metrics.prom";
  std::remove(path.c_str());
  guard.set(path.c_str());
  {
    ds::EngineHost host(small_host());
    for (int i = 0; i < 200 && !file_exists(path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(file_exists(path));
  }  // destructor joins the exporter
  std::remove(path.c_str());
}

TEST(HostMetrics, EnvMetricsEmptyValueThrows) {
  ScopedEnv guard("DJSTAR_METRICS", " ");
  EXPECT_THROW(ds::EngineHost host(small_host()), std::invalid_argument);
}

TEST(HostMetrics, SessionFlightRingsCaptureSessionSpans) {
  ds::EngineHost host(small_host());
  host.enable_flight(256);

  const ds::SessionId id =
      host.submit(light_session(ds::QoS::kStandard, 0.1));
  host.run_fleet_cycles(10);
  const ds::Session* s = host.session(id);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->flight().enabled());
  EXPECT_EQ(s->flight().thread_count(), host.threads());
  EXPECT_GT(s->flight().total_recorded(), 0u);

  const std::string path = testing::TempDir() + "/fleet_flight.json";
  ASSERT_TRUE(s->flight().dump_chrome_trace(path, 10, s->deadline_us()));
  EXPECT_NE(slurp(path).find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}
