// Engine integration for self-healing (DESIGN.md §12): poll_heal() must
// diff the team's counters into the supervisor stats, the telemetry
// counters/journal, and trigger an automatic flight dump on quarantine —
// and healing must disable static-plan replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "djstar/engine/engine.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace de = djstar::engine;
namespace ds = djstar::support;
namespace dt = djstar::test;

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

de::EngineConfig healing_config() {
  de::EngineConfig cfg;
  cfg.strategy = dc::Strategy::kWorkStealing;
  cfg.threads = 4;
  cfg.heal.mode = dc::HealMode::kRespawn;
  cfg.heal.heartbeat_budget_us = dt::kTsan || dt::kAsan ? 20000.0 : 1000.0;
  cfg.heal.check_interval_us = 100.0;
  return cfg;
}

dc::chaos::FaultPlan abort_plan() {
  dc::chaos::FaultPlan plan;
  plan.seed = 0x9E41;
  plan.abort_permille = 25;
  return plan;
}

// Drive cycles until the team has quarantined at least once (bounded).
void run_until_quarantine(de::AudioEngine& engine, int max_cycles) {
  for (int c = 0; c < max_cycles; ++c) {
    engine.run_cycle();
    const dc::Team* team = engine.executor().team();
    if (team != nullptr && team->heal_stats().quarantines > 0) return;
  }
}

}  // namespace

TEST(HealEngine, PollHealFeedsSupervisorStats) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "heal engine supervisor");
  de::AudioEngine engine(healing_config());
  engine.enable_supervision();
  engine.arm_faults(abort_plan());

  run_until_quarantine(engine, dt::scaled(300));

  const de::SupervisorStats& st = engine.supervisor().stats();
  EXPECT_GE(st.worker_quarantines, 1u)
      << "quarantines never reached the supervisor";
  // Respawns trail quarantines by at most the in-flight replacement.
  EXPECT_LE(st.worker_respawns, st.worker_quarantines);
}

TEST(HealEngine, TelemetryExportsHealCountersAndDumpsFlight) {
  dt::Watchdog watchdog(dt::scaled_timeout(120), "heal engine telemetry");
  const std::string dump = testing::TempDir() + "heal_flight_dump.json";
  std::remove(dump.c_str());

  de::AudioEngine engine(healing_config());
  de::TelemetryConfig tcfg;
  tcfg.flight_dump_path = dump;
  engine.enable_telemetry(tcfg);
  engine.arm_faults(abort_plan());

  run_until_quarantine(engine, dt::scaled(300));

  const dc::HealStats hs = engine.executor().team()->heal_stats();
  ASSERT_GE(hs.quarantines, 1u) << "fault plan never caused a quarantine";

  // Counters must equal the team's cumulative numbers exactly.
  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  bool found_q = false, found_live = false;
  for (const ds::MetricValue& m : snap.metrics) {
    if (m.name == "djstar_worker_quarantines_total") {
      found_q = true;
      EXPECT_EQ(m.value, static_cast<double>(hs.quarantines));
    }
    if (m.name == "djstar_live_workers") {
      found_live = true;
      EXPECT_EQ(m.value, static_cast<double>(hs.live));
    }
  }
  EXPECT_TRUE(found_q);
  EXPECT_TRUE(found_live);

  // Every quarantine is an incident: the flight recorder must have
  // dumped automatically, and the journal must carry the event.
  EXPECT_GE(engine.telemetry().flight_dumps(), 1u);
  EXPECT_TRUE(file_exists(dump));
  bool journaled = false;
  for (const ds::Event& e : engine.telemetry().journal().drain_all()) {
    if (e.kind == ds::EventKind::kWorkerQuarantine) journaled = true;
  }
  EXPECT_TRUE(journaled);
  std::remove(dump.c_str());
}

TEST(HealEngine, CleanTeamReportsFullLiveWidth) {
  de::AudioEngine engine(healing_config());
  engine.run_cycles(8);
  const dc::Team* team = engine.executor().team();
  ASSERT_NE(team, nullptr);
  const dc::HealStats hs = team->heal_stats();
  EXPECT_EQ(hs.quarantines, 0u);
  EXPECT_EQ(hs.live, engine.threads());
}
