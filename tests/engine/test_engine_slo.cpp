// Engine-layer SLO acceptance (DESIGN.md §15): a forced miss burst
// drives the tracker ok -> warn -> page deterministically on the
// virtual cycle clock, the page forces a supervisor degradation and a
// kSloPage flight dump, and the state recovers with hysteresis once the
// faults stop. Plus the DJSTAR_SLO constructor hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "djstar/engine/engine.hpp"

namespace de = djstar::engine;
namespace ds = djstar::support;
namespace chaos = djstar::core::chaos;

using djstar_test::ScopedEnv;

namespace {

de::EngineConfig sequential_config() {
  de::EngineConfig cfg;
  cfg.strategy = djstar::core::Strategy::kSequential;
  cfg.threads = 1;
  // Generous deadline: the miss predicate is wall-clock, so a clean
  // cycle preempted by parallel test load must never register as a
  // stray miss — on a 1% budget one stray zeroes the error budget.
  cfg.deadline_us = 20'000.0;
  return cfg;
}

// Small deterministic geometry on the virtual clock: one tsdb window
// per 10 cycles, page pair = 1/2 windows, warn pair = 2/4.
ds::SloConfig tiny_slo(double deadline_us) {
  ds::SloConfig scfg;
  scfg.enabled = true;
  scfg.tsdb.window_us = 10.0 * deadline_us;
  scfg.tsdb.retention = 64;
  scfg.windows.fast_short = 1;
  scfg.windows.fast_long = 2;
  scfg.windows.slow_short = 2;
  scfg.windows.slow_long = 4;
  scfg.windows.recover_evals = 2;
  scfg.spec.miss_ratio = 0.01;
  return scfg;
}

chaos::FaultPlan stall_every_cycle(double stall_us) {
  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.stall_permille = 1000;
  plan.stall_us = stall_us;
  plan.targets = {0};
  return plan;
}

const ds::MetricValue* find_metric(const ds::MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const ds::MetricValue& m : snap.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

TEST(EngineSlo, MissBurstWalksWarnPageAndRecoversWithHysteresis) {
  const std::string dump = testing::TempDir() + "/engine_slo_flight.json";
  std::remove(dump.c_str());

  de::EngineConfig cfg = sequential_config();
  de::AudioEngine engine(cfg);
  de::TelemetryConfig tcfg;
  tcfg.flight_dump_path = dump;
  tcfg.flight_dump_cooldown = 1;  // don't let miss dumps shadow the page
  engine.enable_telemetry(tcfg);
  de::SupervisorConfig scfg;
  scfg.use_watchdog = false;
  scfg.overrun_trip = 1000;  // the ladder moves only when the SLO pages
  engine.enable_supervision(scfg);
  engine.enable_slo(tiny_slo(cfg.deadline_us));
  ASSERT_TRUE(engine.slo_enabled());
  EXPECT_EQ(engine.slo().status().state, ds::SloAlertState::kOk);

  // 100% miss burst: window 1 seals at cycle 10 (-> warn), window 2 at
  // cycle 20 (-> page). Stepwise escalation guarantees the order.
  engine.arm_faults(stall_every_cycle(2.0 * cfg.deadline_us));
  for (int i = 0; i < 10; ++i) engine.run_cycle();
  EXPECT_EQ(engine.slo().status().state, ds::SloAlertState::kWarn);
  const auto level_before = engine.supervisor().level();
  for (int i = 0; i < 10; ++i) engine.run_cycle();
  EXPECT_EQ(engine.slo().status().state, ds::SloAlertState::kPage);
  EXPECT_DOUBLE_EQ(engine.slo().status().budget_remaining, 0.0);
  // The page forced one early degradation rung.
  EXPECT_GT(engine.supervisor().level(), level_before);

  // Faults stop: the fast pair clears immediately, the slow pair drains,
  // then hysteresis steps page -> warn -> ok over clean evaluations.
  engine.disarm_faults();
  for (int i = 0; i < 70; ++i) engine.run_cycle();
  EXPECT_EQ(engine.slo().status().state, ds::SloAlertState::kOk);
  EXPECT_DOUBLE_EQ(engine.slo().status().budget_remaining, 1.0);

  // Journal: alerts escalate 1 then 2, recovery walks 1 then 0, and the
  // page dumped the flight recorder with the kSloPage trigger.
  std::vector<std::int64_t> alerts, recovers;
  bool slo_page_dump = false;
  for (const ds::Event& e : engine.telemetry().journal().drain_all()) {
    if (e.kind == ds::EventKind::kSloAlert) alerts.push_back(e.b);
    if (e.kind == ds::EventKind::kSloRecover) recovers.push_back(e.b);
    if (e.kind == ds::EventKind::kFlightDump &&
        e.a == static_cast<std::int64_t>(de::FlightDumpTrigger::kSloPage)) {
      slo_page_dump = true;
    }
  }
  EXPECT_EQ(alerts, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(recovers, (std::vector<std::int64_t>{1, 0}));
  EXPECT_TRUE(slo_page_dump);
  std::remove(dump.c_str());
}

TEST(EngineSlo, GaugesTrackTheAlertState) {
  de::EngineConfig cfg = sequential_config();
  de::AudioEngine engine(cfg);
  engine.enable_slo(tiny_slo(cfg.deadline_us));
  engine.arm_faults(stall_every_cycle(2.0 * cfg.deadline_us));
  engine.run_cycles(20);  // warn at seal 1, page at seal 2

  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* state =
      find_metric(snap, "djstar_slo_alert_state");
  const ds::MetricValue* budget =
      find_metric(snap, "djstar_slo_budget_remaining");
  const ds::MetricValue* burn =
      find_metric(snap, "djstar_slo_miss_burn_fast");
  ASSERT_NE(state, nullptr);
  ASSERT_NE(budget, nullptr);
  ASSERT_NE(burn, nullptr);
  EXPECT_EQ(state->value, 2.0);
  EXPECT_EQ(budget->value, 0.0);
  EXPECT_GE(burn->value, 14.4);
}

TEST(EngineSlo, MissPredicateAgreesWithTheDeadlineMonitor) {
  de::EngineConfig cfg = sequential_config();
  de::AudioEngine engine(cfg);
  engine.enable_slo(tiny_slo(cfg.deadline_us));
  engine.arm_faults(stall_every_cycle(2.0 * cfg.deadline_us));
  engine.run_cycles(25);

  // Sealed windows cover cycles 1..20; the open window holds the rest.
  // Misses folded into the store must equal the monitor's count for the
  // same cycles — byte-identical predicate, same virtual clock.
  ds::TimeSeriesStore* store = engine.slo_store();
  ASSERT_NE(store, nullptr);
  ds::TimeSeriesStore::SeriesSnapshot snap;
  ASSERT_TRUE(store->snapshot("engine_misses", 0, snap));
  std::uint64_t sealed_misses = 0;
  for (const ds::TsWindow& w : snap.windows) sealed_misses += w.count;
  EXPECT_EQ(sealed_misses, 20u);
  EXPECT_EQ(engine.monitor().misses(), 25u);
}

TEST(EngineSlo, EnvHookEnablesOverridesAndDisables) {
  ScopedEnv guard("DJSTAR_SLO", "on,0.05");
  {
    de::AudioEngine engine(sequential_config());
    ASSERT_TRUE(engine.slo_enabled());
    EXPECT_TRUE(engine.telemetry_enabled());  // slo implies telemetry
    EXPECT_DOUBLE_EQ(engine.slo().spec().miss_ratio, 0.05);
    // Default geometry: SRE pairs scaled to the 1 s default window.
    EXPECT_EQ(engine.slo().windows().fast_short, 300u);
  }

  // off wins over a config that asked for it.
  guard.set("off");
  {
    de::EngineConfig cfg = sequential_config();
    cfg.slo.enabled = true;
    de::AudioEngine engine(cfg);
    EXPECT_FALSE(engine.slo_enabled());
  }

  guard.set("on,nonsense");
  EXPECT_THROW(de::AudioEngine engine(sequential_config()),
               std::invalid_argument);
}
