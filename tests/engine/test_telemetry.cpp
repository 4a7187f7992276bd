// Integration tests for the engine telemetry bundle: exact-count
// agreement with the DeadlineMonitor, automatic flight dumps on forced
// deadline misses, journal event production, and the DJSTAR_FLIGHT /
// DJSTAR_TRACE environment hooks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "djstar/engine/engine.hpp"

namespace de = djstar::engine;
namespace ds = djstar::support;
namespace chaos = djstar::core::chaos;

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

// Find a frozen metric by name; fails the test when absent.
const ds::MetricValue* find_metric(const ds::MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const ds::MetricValue& m : snap.metrics) {
    if (m.name == name) return &m;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return nullptr;
}

de::EngineConfig sequential_config() {
  de::EngineConfig cfg;
  cfg.strategy = djstar::core::Strategy::kSequential;
  cfg.threads = 1;
  return cfg;
}

// Every cycle, node 0 stalls longer than the whole deadline — a
// guaranteed deterministic deadline miss.
chaos::FaultPlan stall_every_cycle(double stall_us) {
  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.stall_permille = 1000;
  plan.stall_us = stall_us;
  plan.targets = {0};
  return plan;
}

}  // namespace

TEST(EngineTelemetry, CountsAgreeWithDeadlineMonitorExactly) {
  de::AudioEngine engine(sequential_config());
  engine.enable_telemetry();
  engine.run_cycles(50);

  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* cycles = find_metric(snap, "djstar_cycles_total");
  const ds::MetricValue* misses =
      find_metric(snap, "djstar_deadline_misses_total");
  ASSERT_NE(cycles, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(std::uint64_t(cycles->value), engine.monitor().cycles());
  EXPECT_EQ(std::uint64_t(misses->value), engine.monitor().misses());

  const ds::MetricValue* apc = find_metric(snap, "djstar_apc_total_us");
  ASSERT_NE(apc, nullptr);
  EXPECT_EQ(apc->count, engine.monitor().cycles());

  // The rendered exports carry the same numbers.
  const std::string prom = engine.telemetry().prometheus();
  EXPECT_NE(prom.find("djstar_cycles_total " +
                      std::to_string(engine.monitor().cycles())),
            std::string::npos);
  const std::string json = engine.telemetry().json();
  EXPECT_NE(json.find("\"name\":\"djstar_cycles_total\""), std::string::npos);
}

TEST(EngineTelemetry, ForcedStallProducesMissFlightDumpAndJournal) {
  const std::string dump =
      testing::TempDir() + "/telemetry_incident_trace.json";
  std::remove(dump.c_str());

  de::AudioEngine engine(sequential_config());
  de::TelemetryConfig tcfg;
  tcfg.flight_dump_path = dump;
  tcfg.flight_dump_cycles = 8;
  engine.enable_telemetry(tcfg);
  engine.arm_faults(stall_every_cycle(2.0 * djstar::audio::kDeadlineUs));
  engine.run_cycles(3);

  // Every cycle stalls past the deadline: the monitor and the metric
  // must agree the misses happened, and the first one dumps the flight
  // recorder.
  EXPECT_EQ(engine.monitor().misses(), 3u);
  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* misses =
      find_metric(snap, "djstar_deadline_misses_total");
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(std::uint64_t(misses->value), 3u);
  const ds::MetricValue* faults =
      find_metric(snap, "djstar_faults_injected_total");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(std::uint64_t(faults->value), engine.compiled().faults_injected());
  EXPECT_EQ(std::uint64_t(faults->value), 3u);

  EXPECT_GE(engine.telemetry().flight_dumps(), 1u);
  ASSERT_TRUE(file_exists(dump));
  const std::string trace = slurp(dump);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  // The journal carries the matching typed events.
  const std::vector<ds::Event> evs =
      engine.telemetry().journal().drain_all();
  std::size_t n_miss = 0, n_fault = 0, n_dump = 0;
  for (const ds::Event& e : evs) {
    switch (e.kind) {
      case ds::EventKind::kDeadlineMiss: ++n_miss; break;
      case ds::EventKind::kFaultInjected: ++n_fault; break;
      case ds::EventKind::kFlightDump: ++n_dump; break;
      default: break;
    }
  }
  EXPECT_EQ(n_miss, 3u);
  EXPECT_EQ(n_fault, 3u);
  EXPECT_EQ(n_dump, engine.telemetry().flight_dumps());
  std::remove(dump.c_str());
}

TEST(EngineTelemetry, DumpCooldownLimitsIncidentStorms) {
  const std::string dump = testing::TempDir() + "/telemetry_cooldown.json";
  de::AudioEngine engine(sequential_config());
  de::TelemetryConfig tcfg;
  tcfg.flight_dump_path = dump;
  tcfg.flight_dump_cooldown = 1000;  // far beyond the run length
  engine.enable_telemetry(tcfg);
  engine.arm_faults(stall_every_cycle(2.0 * djstar::audio::kDeadlineUs));
  engine.run_cycles(5);
  EXPECT_EQ(engine.telemetry().flight_dumps(), 1u);
  std::remove(dump.c_str());
}

TEST(EngineTelemetry, SupervisedDegradationIsCountedAndJournaled) {
  de::AudioEngine engine(sequential_config());
  engine.enable_telemetry();
  de::SupervisorConfig scfg;
  scfg.overrun_trip = 1;     // one overrun per rung down
  scfg.use_watchdog = false; // deterministic on a loaded CI box
  engine.enable_supervision(scfg);
  engine.arm_faults(stall_every_cycle(2.0 * djstar::audio::kDeadlineUs));
  for (int i = 0; i < 4; ++i) engine.run_cycle();

  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  const ds::MetricValue* degrades =
      find_metric(snap, "djstar_degrade_steps_total");
  const ds::MetricValue* level = find_metric(snap, "djstar_degradation_level");
  ASSERT_NE(degrades, nullptr);
  ASSERT_NE(level, nullptr);
  EXPECT_GT(degrades->value, 0.0);
  EXPECT_GT(level->value, 0.0);

  bool saw_degrade_event = false;
  for (const ds::Event& e : engine.telemetry().journal().drain_all()) {
    if (e.kind == ds::EventKind::kDegrade) saw_degrade_event = true;
  }
  EXPECT_TRUE(saw_degrade_event);
}

TEST(EngineTelemetry, EnvFlightVariableEnablesTelemetry) {
  ScopedEnv guard("DJSTAR_FLIGHT", nullptr);
  const std::string dump = testing::TempDir() + "/env_flight_trace.json";
  guard.set(dump.c_str());
  de::AudioEngine engine(sequential_config());
  EXPECT_TRUE(engine.telemetry_enabled());
  EXPECT_EQ(engine.telemetry().config().flight_dump_path, dump);
  engine.run_cycles(2);
  EXPECT_EQ(std::uint64_t(
                find_metric(engine.telemetry().registry().snapshot(),
                            "djstar_cycles_total")
                    ->value),
            2u);
}

TEST(EngineTelemetry, EnvFlightEmptyValueThrows) {
  ScopedEnv guard("DJSTAR_FLIGHT", "   ");
  EXPECT_THROW(de::AudioEngine engine(sequential_config()),
               std::invalid_argument);
}

TEST(EngineTelemetry, EnvTraceCapturesFirstCycleThenDisarms) {
  ScopedEnv guard("DJSTAR_TRACE", nullptr);
  const std::string path = testing::TempDir() + "/env_first_cycle.json";
  std::remove(path.c_str());
  guard.set(path.c_str());

  de::AudioEngine engine(sequential_config());
  EXPECT_FALSE(engine.telemetry_enabled());  // trace alone, no telemetry
  engine.run_cycle();
  ASSERT_TRUE(file_exists(path));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // One-shot: later cycles must not grow the capture.
  const std::string first = json;
  engine.run_cycles(3);
  EXPECT_EQ(slurp(path), first);
  std::remove(path.c_str());
}

TEST(EngineTelemetry, EnvTraceEmptyValueThrows) {
  ScopedEnv guard("DJSTAR_TRACE", "");
  EXPECT_THROW(de::AudioEngine engine(sequential_config()),
               std::invalid_argument);
}

TEST(EngineTelemetry, StrategySwapKeepsTelemetryWired) {
  de::AudioEngine engine(sequential_config());
  engine.enable_telemetry();
  engine.run_cycles(2);
  engine.set_strategy(djstar::core::Strategy::kBusyWait, 2);
  engine.run_cycles(2);
  EXPECT_EQ(std::uint64_t(
                find_metric(engine.telemetry().registry().snapshot(),
                            "djstar_cycles_total")
                    ->value),
            4u);
  // Flight lanes were resized for the new worker count and keep
  // recording after the swap.
  EXPECT_EQ(engine.telemetry().flight().thread_count(), 2u);
  EXPECT_GT(engine.telemetry().flight().total_recorded(), 0u);
}
