// Serve-layer circuit-breaker integration (DESIGN.md §12): a session
// whose cycles keep failing (deadline misses, faults) trips, is torn
// down and snapshot, and is restored via a half-open probe — without
// disturbing co-hosted realtime sessions or the admission log's
// replayability.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"
#include "stress/stress_util.hpp"

namespace ds = djstar::serve;
namespace dj = djstar::support;
namespace dt = djstar::test;

namespace {

ds::SessionSpec light_realtime() {
  ds::SyntheticSpec spec;
  spec.name = "rt";
  spec.qos = ds::QoS::kRealtime;
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 0.5;
  ds::SessionSpec s = ds::make_synthetic_session(spec);
  s.cost_estimate_us = 0.05 * spec.deadline_us;
  return s;
}

// Calibrated spins well past the deadline: misses every cycle.
ds::SessionSpec doomed_session() {
  ds::SyntheticSpec spec;
  spec.name = "doomed";
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 1500.0;
  spec.jitter = 0.0;
  ds::SessionSpec s = ds::make_synthetic_session(spec);
  s.cost_estimate_us = 100.0;  // lie to admission so it runs live
  return s;
}

ds::HostConfig breaker_host(unsigned k = 2, double backoff_ms = 10.0) {
  ds::HostConfig cfg;
  cfg.threads = 2;
  cfg.breaker.trip_failures = k;
  cfg.breaker.backoff_ms = backoff_ms;
  // These tests exercise the breaker, not the overload handler: a
  // doomed standard session must reach its K-miss trip instead of
  // racing the shed path for who mitigates it first.
  cfg.overload.shed_standard = false;
  return cfg;
}

struct EventTally {
  unsigned trips = 0;
  unsigned probes = 0;
  unsigned restores = 0;
};

EventTally tally(ds::EngineHost& host) {
  EventTally t;
  for (const dj::Event& e : host.journal().drain_all()) {
    if (e.kind == dj::EventKind::kBreakerTrip) ++t.trips;
    if (e.kind == dj::EventKind::kBreakerProbe) ++t.probes;
    if (e.kind == dj::EventKind::kSessionRestored) ++t.restores;
  }
  return t;
}

}  // namespace

TEST(ServeBreaker, FailingSessionTripsAndIsRestoredByProbe) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker trip/restore");
  ds::EngineHost host(breaker_host());
  const ds::SessionId id = host.submit(doomed_session());

  bool saw_tripped = false;
  EventTally total;
  for (int i = 0; i < dt::scaled(120) && total.restores == 0; ++i) {
    host.run_fleet_cycle();
    if (host.session_state(id) == ds::SessionState::kTripped) {
      saw_tripped = true;
    }
    const EventTally t = tally(host);
    total.trips += t.trips;
    total.probes += t.probes;
    total.restores += t.restores;
  }
  EXPECT_TRUE(saw_tripped) << "session never reached kTripped";
  EXPECT_GE(total.trips, 1u);
  EXPECT_GE(total.probes, 1u);
  EXPECT_GE(total.restores, 1u) << "probe never restored the session";
}

TEST(ServeBreaker, TrippedSessionDoesNotDisturbRealtimeNeighbor) {
  dt::Watchdog watchdog(dt::scaled_timeout(180), "breaker co-hosting");
  ds::EngineHost host(breaker_host());
  const ds::SessionId rt = host.submit(light_realtime());
  const ds::SessionId bad = host.submit(doomed_session());

  const int cycles = dt::scaled(400);
  bool tripped_once = false;
  for (int i = 0; i < cycles; ++i) {
    host.run_fleet_cycle();
    if (host.session_state(bad) == ds::SessionState::kTripped) {
      tripped_once = true;
    }
    ASSERT_EQ(host.session_state(rt), ds::SessionState::kActive)
        << "realtime neighbor lost its slot at tick " << i;
  }
  ASSERT_TRUE(tripped_once);

  // Steady-state SLO for the co-hosted realtime session: miss rate
  // <= 0.1% once the doomed session is parked most of the time. The
  // first few ticks share the pool with a 6 ms graph, so misses there
  // are expected — the breaker exists precisely to bound that exposure.
  const ds::Session* s = host.session(rt);
  ASSERT_NE(s, nullptr);
  const auto& c = s->counters();
  ASSERT_GT(c.cycles, 0u);
  const double grace = 8.0;  // pre-trip cycles that may legitimately miss
  const double excess =
      c.misses > grace ? static_cast<double>(c.misses) - grace : 0.0;
  EXPECT_LE(excess / static_cast<double>(c.cycles), 0.001)
      << c.misses << " misses over " << c.cycles << " cycles";
}

TEST(ServeBreaker, ProbesDoNotTouchTheAdmissionLog) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker admission log");
  ds::EngineHost host(breaker_host());
  const ds::SessionId id = host.submit(doomed_session());
  host.run_fleet_cycle();  // admission decision lands here
  const std::size_t log_after_admit = host.admission_log().size();

  EventTally total;
  for (int i = 0; i < dt::scaled(120) && total.restores == 0; ++i) {
    host.run_fleet_cycle();
    const EventTally t = tally(host);
    total.probes += t.probes;
    total.restores += t.restores;
  }
  ASSERT_GE(total.restores, 1u);
  // The log is a pure function of the submission sequence; probes and
  // restores must leave it untouched or replays diverge.
  EXPECT_EQ(host.admission_log().size(), log_after_admit);
  (void)id;
}

TEST(ServeBreaker, CloseWhileTrippedReleasesTheParkedSession) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker close-tripped");
  ds::EngineHost host(breaker_host());
  const ds::SessionId id = host.submit(doomed_session());

  for (int i = 0; i < dt::scaled(60); ++i) {
    host.run_fleet_cycle();
    if (host.session_state(id) == ds::SessionState::kTripped) break;
  }
  ASSERT_EQ(host.session_state(id), ds::SessionState::kTripped);
  ASSERT_EQ(host.tripped_sessions(), 1u);

  host.close(id);
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(id), ds::SessionState::kClosed);
  EXPECT_EQ(host.tripped_sessions(), 0u);
  // And it must stay gone: no probe may resurrect a closed session.
  for (int i = 0; i < 30; ++i) host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(id), ds::SessionState::kClosed);
  EXPECT_EQ(host.active_sessions(), 0u);
}

TEST(ServeBreaker, DisabledBreakerNeverTrips) {
  ds::HostConfig cfg;
  cfg.threads = 2;  // cfg.breaker stays default (trip_failures == 0)
  ds::EngineHost host(cfg);
  const ds::SessionId id = host.submit(doomed_session());
  for (int i = 0; i < 30; ++i) host.run_fleet_cycle();
  // Pre-breaker behaviour: the session stays active and keeps missing
  // (its own supervisor ladder is the only mitigation).
  EXPECT_EQ(host.session_state(id), ds::SessionState::kActive);
  EXPECT_EQ(host.tripped_sessions(), 0u);
}

TEST(ServeBreaker, SnapshotRestoresDegradationLevelAndCost) {
  using djstar::engine::DegradationLevel;
  dt::Watchdog watchdog(dt::scaled_timeout(120), "breaker snapshot");
  // K faulted cycles trip the breaker, and each one also steps the ladder
  // one rung (SupervisorConfig::fault_trip == 1). With K = 3 the snapshot
  // holds kSequentialFallback, an interior rung: a restore that skipped
  // the ladder walk (kFull) or ran it to the floor (kSafeMode) both show.
  constexpr unsigned kTrip = 3;
  ds::HostConfig cfg = breaker_host(kTrip, /*backoff_ms=*/5.0);
  // A 20 ms fleet tick (the slo tests' idiom): a cycle of a few
  // microseconds, preempted by test load, stays far inside it, so only
  // the fault plan fails cycles. The session's deadline spans two ticks,
  // so the tick that restores it does not run it, and the checks below
  // see the state the restore left.
  constexpr double kTickUs = 20'000.0;
  cfg.default_tick_us = kTickUs;
  // The probe is admitted against the recalibrated (measured) cost. A
  // p99 inflated by load may pass the default density bound; probe
  // admission is not what this test checks, so relax the bound.
  cfg.admission.utilization_bound = 50.0;
  ds::EngineHost host(cfg);

  ds::SyntheticSpec spec;
  spec.name = "snapshot";
  spec.deadline_us = 2.0 * kTickUs;
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 0.5;
  ds::SessionSpec session = ds::make_synthetic_session(spec);
  const double declared_cost_us = 0.1 * spec.deadline_us;
  session.cost_estimate_us = declared_cost_us;
  const ds::SessionId id = host.submit(std::move(session));

  // Hang guard only: every phase below ends on a state the virtual
  // schedule reaches in well under a hundred ticks.
  constexpr int kMaxTicks = 1000;

  // recalibrate() replaces the declared cost with the measured p99 only
  // once the session has 32 cycles of samples.
  for (int i = 0; i < kMaxTicks; ++i) {
    const ds::Session* s = host.session(id);
    if (s != nullptr && s->counters().cycles >= 32) break;
    host.run_fleet_cycle();
  }
  ds::Session* live = host.session(id);
  ASSERT_NE(live, nullptr);
  ASSERT_GE(live->counters().cycles, 32u);
  ASSERT_EQ(live->supervisor().level(), DegradationLevel::kFull);
  host.recalibrate();
  const double cost_us = live->cost_estimate_us();
  ASSERT_NE(cost_us, declared_cost_us);

  // Every cycle from here throws at the source (node 0, which no rung
  // masks). The plan is armed on the live compiled graph, not the spec,
  // so the session rebuilt by the probe runs without it.
  djstar::core::chaos::FaultPlan plan;
  plan.throw_permille = 1000;
  plan.targets = {0};
  live->arm_faults(plan);

  for (int i = 0;
       i < kMaxTicks && host.session_state(id) != ds::SessionState::kTripped;
       ++i) {
    host.run_fleet_cycle();
  }
  ASSERT_EQ(host.session_state(id), ds::SessionState::kTripped);

  for (int i = 0;
       i < kMaxTicks && host.session_state(id) != ds::SessionState::kActive;
       ++i) {
    host.run_fleet_cycle();
  }
  ASSERT_EQ(host.session_state(id), ds::SessionState::kActive);
  const ds::Session* s = host.session(id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counters().cycles, 0u) << "a probe cycle ran before the checks";
  EXPECT_EQ(s->supervisor().level(), DegradationLevel::kSequentialFallback)
      << "restored at " << djstar::engine::to_string(s->supervisor().level())
      << "; the level at the trip is " << kTrip << " rungs below kFull";
  EXPECT_EQ(s->cost_estimate_us(), cost_us);
  EXPECT_DOUBLE_EQ(host.active_density(), cost_us / s->deadline_us());
}
