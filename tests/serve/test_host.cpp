// Integration tests for serve::EngineHost: two-level scheduling,
// admission, EDF multi-rate dispatch, overload shedding, replayability.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/serve/host.hpp"
#include "djstar/serve/synthetic.hpp"

namespace ds = djstar::serve;

namespace {

// A light session: trivial compute, admission density declared directly
// so tests are independent of wall-clock measurements.
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

// A heavy session: calibrated spins that genuinely exceed the tick
// budget when several run together, to provoke the overload handler.
ds::SessionSpec heavy_session(ds::QoS qos, const std::string& name) {
  ds::SyntheticSpec spec;
  spec.name = name;
  spec.qos = qos;
  spec.width = 2;
  spec.depth = 2;
  spec.node_cost_us = 1000.0;
  spec.jitter = 0.0;
  ds::SessionSpec s = ds::make_synthetic_session(spec);
  s.cost_estimate_us = 100.0;  // lie to admission so overload happens live
  return s;
}

ds::HostConfig small_host(double bound = 0.65) {
  ds::HostConfig cfg;
  cfg.threads = 2;
  cfg.admission.utilization_bound = bound;
  return cfg;
}

}  // namespace

TEST(EngineHost, ResolvesThreadCountAndStartsIdle) {
  ds::EngineHost host(small_host());
  EXPECT_EQ(host.threads(), 2u);
  EXPECT_EQ(host.active_sessions(), 0u);
  const ds::FleetTick t = host.run_fleet_cycle();
  EXPECT_EQ(t.sessions_run, 0u);
  EXPECT_DOUBLE_EQ(t.budget_us, djstar::audio::kDeadlineUs);
}

TEST(EngineHost, AdmitsRunsAndCountsExactlyOnce) {
  ds::EngineHost host(small_host());
  const ds::SessionId id = host.submit(light_session(ds::QoS::kStandard, 0.1));
  EXPECT_EQ(host.session_state(id), ds::SessionState::kQueued);

  constexpr std::size_t kTicks = 50;
  host.run_fleet_cycles(kTicks);
  EXPECT_EQ(host.session_state(id), ds::SessionState::kActive);

  const ds::Session* s = host.session(id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counters().cycles, kTicks);
  // Exactly-once node execution: the hosted executor ran every node of
  // every cycle exactly once (kFull throughout — the load is trivial).
  EXPECT_EQ(s->hosted_executor().stats().snapshot().nodes_executed,
            kTicks * s->node_count());
  EXPECT_EQ(s->supervisor().level(), djstar::engine::DegradationLevel::kFull);
}

TEST(EngineHost, EdfDispatchesMultiRateSessionsProportionally) {
  ds::EngineHost host(small_host());
  const double d = djstar::audio::kDeadlineUs;
  const auto fast = host.submit(light_session(ds::QoS::kStandard, 0.05, d));
  const auto slow =
      host.submit(light_session(ds::QoS::kStandard, 0.05, 2.0 * d));

  constexpr std::size_t kTicks = 40;
  host.run_fleet_cycles(kTicks);

  const ds::Session* f = host.session(fast);
  const ds::Session* s = host.session(slow);
  ASSERT_NE(f, nullptr);
  ASSERT_NE(s, nullptr);
  // The tick window is the fast session's deadline; the slow session is
  // due every other tick.
  EXPECT_EQ(f->counters().cycles, kTicks);
  EXPECT_EQ(s->counters().cycles, kTicks / 2);
}

TEST(EngineHost, OverCapacitySubmissionsQueueThenAdmitOnClose) {
  ds::EngineHost host(small_host(0.6));
  const auto a = host.submit(light_session(ds::QoS::kStandard, 0.5));
  const auto b = host.submit(light_session(ds::QoS::kStandard, 0.5));
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(a), ds::SessionState::kActive);
  EXPECT_EQ(host.session_state(b), ds::SessionState::kQueued);
  EXPECT_EQ(host.queued_sessions(), 1u);

  host.close(a);
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(a), ds::SessionState::kClosed);
  EXPECT_EQ(host.session_state(b), ds::SessionState::kActive);
  EXPECT_EQ(host.queued_sessions(), 0u);

  // Density accounting has no leak: b is the only remaining session.
  EXPECT_NEAR(host.active_density(), 0.5, 1e-9);
}

// Regression: closing a session while it is still parked in the
// admission FIFO must pull it out of the queue *before* any accounting
// is finalized. The old ordering finalized first, so the dead entry was
// still visible when the queued-depth stat was read, and the close left
// no kSessionClosed record at all for queued sessions.
TEST(EngineHost, CloseWhileQueuedRemovesFromFifoBeforeFinalizing) {
  ds::EngineHost host(small_host(0.6));
  const auto a = host.submit(light_session(ds::QoS::kStandard, 0.5));
  const auto b = host.submit(light_session(ds::QoS::kStandard, 0.5));
  host.run_fleet_cycle();
  ASSERT_EQ(host.session_state(b), ds::SessionState::kQueued);
  host.journal().drain_all();  // discard the admission-time events

  host.close(b);
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(b), ds::SessionState::kClosed);
  EXPECT_EQ(host.queued_sessions(), 0u);
  // The neighbor is untouched and the queued session never contributed
  // to active density, so none may be released on its behalf.
  EXPECT_EQ(host.session_state(a), ds::SessionState::kActive);
  EXPECT_NEAR(host.active_density(), 0.5, 1e-9);

  // The close is journaled exactly once, against b's id.
  unsigned closed_events = 0;
  for (const auto& e : host.journal().drain_all()) {
    if (e.kind == djstar::support::EventKind::kSessionClosed) {
      ++closed_events;
      EXPECT_EQ(e.a, static_cast<std::int64_t>(b));
    }
  }
  EXPECT_EQ(closed_events, 1u);

  // The freed FIFO slot behaves normally: a later submission queues and
  // then admits once capacity opens up.
  const auto c = host.submit(light_session(ds::QoS::kStandard, 0.5));
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(c), ds::SessionState::kQueued);
  host.close(a);
  host.run_fleet_cycles(3);
  EXPECT_EQ(host.session_state(c), ds::SessionState::kActive);
  EXPECT_EQ(host.queued_sessions(), 0u);
}

TEST(EngineHost, RejectsWhenQueueingDisabled) {
  ds::HostConfig cfg = small_host(0.6);
  cfg.admission.queue_when_full = false;
  ds::EngineHost host(cfg);
  host.submit(light_session(ds::QoS::kStandard, 0.5));
  const auto b = host.submit(light_session(ds::QoS::kStandard, 0.5));
  host.run_fleet_cycle();
  EXPECT_EQ(host.session_state(b), ds::SessionState::kRejected);
  EXPECT_EQ(host.stats().rejected, 1u);
}

TEST(EngineHost, AdmissionLogIsReplayable) {
  // Two hosts fed the same submission sequence produce identical
  // admission logs — admission is a pure function of declared inputs.
  const auto run = [] {
    ds::EngineHost host(small_host(0.65));
    for (int i = 0; i < 8; ++i) {
      host.submit(light_session(ds::QoS::kStandard, 0.2));
    }
    host.run_fleet_cycle();
    return host.admission_log();
  };
  const auto log1 = run();
  const auto log2 = run();
  ASSERT_EQ(log1.size(), log2.size());
  ASSERT_EQ(log1.size(), 8u);
  for (std::size_t i = 0; i < log1.size(); ++i) {
    EXPECT_EQ(log1[i].id, log2[i].id);
    EXPECT_EQ(log1[i].verdict, log2[i].verdict);
    EXPECT_DOUBLE_EQ(log1[i].projected_density, log2[i].projected_density);
    EXPECT_EQ(log1[i].tick, log2[i].tick);
  }
  // With bound 0.65 and density 0.2 each: three admitted, rest queued.
  int admitted = 0;
  for (const auto& r : log1) {
    admitted += r.verdict == ds::AdmissionVerdict::kAdmitted ? 1 : 0;
  }
  EXPECT_EQ(admitted, 3);
}

TEST(EngineHost, OverloadShedsBestEffortFirstAndNeverRealtime) {
  ds::HostConfig cfg;
  cfg.threads = 2;
  cfg.admission.utilization_bound = 10.0;  // let overload happen live
  cfg.overload.trip_ticks = 2;
  // Pin every ladder: only host-forced rungs may move a session, so the
  // load stays heavy and the shed order is observable (self-degradation
  // to safe mode would quietly clear the overload instead).
  cfg.supervisor.overrun_trip = 1000000;
  ds::EngineHost host(cfg);

  const auto rt = host.submit(heavy_session(ds::QoS::kRealtime, "rt"));
  const auto st = host.submit(heavy_session(ds::QoS::kStandard, "std"));
  const auto be1 = host.submit(heavy_session(ds::QoS::kBestEffort, "be1"));
  const auto be2 = host.submit(heavy_session(ds::QoS::kBestEffort, "be2"));

  std::map<ds::SessionId, std::uint64_t> shed_tick;
  for (std::uint64_t tick = 0; tick < 400; ++tick) {
    host.run_fleet_cycle();
    for (const auto id : {rt, st, be1, be2}) {
      if (!shed_tick.count(id) &&
          host.session_state(id) == ds::SessionState::kShed) {
        shed_tick[id] = tick;
      }
    }
    if (shed_tick.count(be1) && shed_tick.count(be2)) break;
  }

  // Sustained 4x overload must eventually shed both besteffort sessions.
  ASSERT_TRUE(shed_tick.count(be1));
  ASSERT_TRUE(shed_tick.count(be2));
  // Realtime is never shed, no matter how long the overload lasts.
  EXPECT_EQ(host.session_state(rt), ds::SessionState::kActive);
  // Standard outlives every besteffort session.
  if (shed_tick.count(st)) {
    EXPECT_GT(shed_tick[st], shed_tick[be1]);
    EXPECT_GT(shed_tick[st], shed_tick[be2]);
  }
  EXPECT_GE(host.stats().overload_events, 1u);
  EXPECT_EQ(host.stats().shed, shed_tick.size());
}

TEST(EngineHost, StatsAggregateRetainsDepartedSessions) {
  ds::EngineHost host(small_host());
  const auto a = host.submit(light_session(ds::QoS::kRealtime, 0.1));
  const auto b = host.submit(light_session(ds::QoS::kBestEffort, 0.1));
  host.run_fleet_cycles(10);
  host.close(a);
  host.run_fleet_cycles(10);

  const ds::FleetStats f = host.stats();
  EXPECT_EQ(f.submitted, 2u);
  EXPECT_EQ(f.admitted, 2u);
  EXPECT_EQ(f.closed, 1u);
  // a ran 10 cycles before closing; b ran all 20 (the close tick still
  // dispatches b). Fleet cycles lose nothing when a session departs.
  const ds::Session* live_b = host.session(b);
  ASSERT_NE(live_b, nullptr);
  EXPECT_EQ(f.cycles, 10 + live_b->counters().cycles);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kRealtime)].cycles, 10u);
  EXPECT_EQ(f.sessions.size(), 1u);  // live rows only
  EXPECT_GT(f.p99_latency_us, 0.0);
}

TEST(EngineHost, RecalibrateRederivesDensityFromMeasurements) {
  ds::EngineHost host(small_host());
  const auto id = host.submit(light_session(ds::QoS::kStandard, 0.4));
  host.run_fleet_cycles(40);  // > 32 samples for the measured p99
  const double declared = host.active_density();
  EXPECT_NEAR(declared, 0.4, 1e-9);

  host.recalibrate();
  // The estimate is now the measured compute p99 (not the declared one)
  // and the density sum is re-derived from it. No assertion on the
  // direction of the change: the light graph normally measures far
  // cheaper than declared, but a preempted run can measure dearer.
  const ds::Session* s = host.session(id);
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->cost_estimate_us(), 0.0);
  EXPECT_NE(host.active_density(), declared);
  EXPECT_NEAR(host.active_density(),
              s->cost_estimate_us() / s->deadline_us(), 1e-9);
}

TEST(EngineHost, ChromeTraceExportCoversLiveAndDepartedSessions) {
  ds::EngineHost host(small_host());
  host.enable_flight(1024);
  const auto a = host.submit(light_session(ds::QoS::kStandard, 0.1));
  const auto b = host.submit(light_session(ds::QoS::kStandard, 0.1));
  host.run_fleet_cycles(3);
  host.close(a);
  host.run_fleet_cycles(2);
  (void)b;

  const std::string path = testing::TempDir() + "/fleet_trace.json";
  ASSERT_TRUE(host.write_chrome_trace(path));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One pid per session: both session ids appear, including the closed one.
  EXPECT_NE(json.find("\"pid\":" + std::to_string(a)), std::string::npos);
  EXPECT_NE(json.find("\"pid\":" + std::to_string(b)), std::string::npos);
}

TEST(EngineHost, ChromeTraceKeepsOnlyTheMostRecentDepartures) {
  // A host that churns sessions keeps the spans of the last
  // kRetiredTraces departures only, so its memory stays bounded.
  constexpr std::size_t kKept = ds::EngineHost::kRetiredTraces;
  ds::EngineHost host(small_host());
  host.enable_flight(256);
  std::vector<ds::SessionId> departed;
  for (std::size_t i = 0; i < kKept + 10; ++i) {
    const auto id = host.submit(light_session(ds::QoS::kStandard, 0.1));
    host.run_fleet_cycles(2);
    host.close(id);
    host.run_fleet_cycle();
    departed.push_back(id);
  }

  const std::string path = testing::TempDir() + "/fleet_churn_trace.json";
  ASSERT_TRUE(host.write_chrome_trace(path));
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Every process announces itself once with a process_name event.
  const auto has_pid = [&](ds::SessionId id) {
    return json.find("\"ph\":\"M\",\"pid\":" + std::to_string(id) + ",") !=
           std::string::npos;
  };
  std::size_t kept = 0;
  for (const ds::SessionId id : departed) kept += has_pid(id) ? 1 : 0;
  EXPECT_LE(kept, kKept);
  EXPECT_GT(kept, 0u);
  EXPECT_TRUE(has_pid(departed.back())) << "the last departure is missing";
  EXPECT_FALSE(has_pid(departed.front())) << "the oldest departure is kept";
}

TEST(EngineHost, SessionRingsHoldEveryCycleWithoutLaneOverlap) {
  // Each session's span ring is tagged with that session's own cycle
  // count, so every cycle of every session reads back whole: one run
  // span per node, and no two run spans overlapping on one worker lane.
  // A generous deadline keeps the ladder at full quality (safe-mode
  // cycles record no spans).
  const double deadline_us = 20 * djstar::audio::kDeadlineUs;
  ds::HostConfig cfg = small_host();
  cfg.default_tick_us = deadline_us;
  ds::EngineHost host(cfg);
  host.enable_flight(4096);
  std::vector<ds::SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(
        host.submit(light_session(ds::QoS::kStandard, 0.1, deadline_us)));
  }
  host.run_fleet_cycles(6);

  using djstar::support::SpanKind;
  std::vector<djstar::support::TraceSpan> spans;
  for (const ds::SessionId id : ids) {
    const ds::Session* s = host.session(id);
    ASSERT_NE(s, nullptr);
    const auto& ring = s->flight();
    ASSERT_EQ(ring.cycle(), s->counters().cycles);
    ASSERT_GE(ring.cycle(), 6u);
    for (std::uint64_t c = 1; c <= ring.cycle(); ++c) {
      ring.collect_cycle(c, spans);  // sorted by (lane, begin)
      std::vector<int> runs(s->node_count(), 0);
      const djstar::support::TraceSpan* prev = nullptr;
      for (const auto& span : spans) {
        if (span.kind != SpanKind::kRun) continue;
        ASSERT_GE(span.node, 0);
        ASSERT_LT(static_cast<std::size_t>(span.node), runs.size());
        ++runs[static_cast<std::size_t>(span.node)];
        if (prev != nullptr && prev->thread == span.thread) {
          EXPECT_GE(span.begin_us, prev->end_us)
              << "session " << id << " cycle " << c << " lane "
              << span.thread << ": node " << span.node << " overlaps node "
              << prev->node;
        }
        prev = &span;
      }
      for (std::size_t n = 0; n < runs.size(); ++n) {
        EXPECT_EQ(runs[n], 1)
            << "session " << id << " cycle " << c << " node " << n;
      }
    }
  }
}
