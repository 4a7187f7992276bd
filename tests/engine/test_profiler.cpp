// engine/profiler integration (DESIGN.md §14): mode parsing and the
// hardened DJSTAR_PROF hook, HwSampler graceful degradation, forced-stall
// blame attribution on the real DJ graph, and critical-path/makespan
// reconciliation across every strategy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "djstar/engine/engine.hpp"

namespace de = djstar::engine;
namespace ds = djstar::support;
namespace da = djstar::support::attrib;
namespace chaos = djstar::core::chaos;
using djstar::core::Strategy;

using djstar_test::ScopedEnv;

namespace {

const ds::MetricValue* find_metric(const ds::MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const ds::MetricValue& m : snap.metrics) {
    if (m.name == name) return &m;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return nullptr;
}

de::EngineConfig base_config(Strategy s, unsigned threads) {
  de::EngineConfig cfg;
  cfg.strategy = s;
  cfg.threads = threads;
  return cfg;
}

// Every cycle, node 0 stalls longer than the whole deadline: a
// deterministic miss whose culprit is known by construction.
chaos::FaultPlan stall_node(djstar::core::NodeId node, double stall_us) {
  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.stall_permille = 1000;
  plan.stall_us = stall_us;
  plan.targets = {node};
  return plan;
}

}  // namespace

// ---- mode parsing and the DJSTAR_PROF env hook ------------------------------

TEST(ProfMode, ParseAndToStringRoundTrip) {
  using de::ProfMode;
  EXPECT_EQ(de::parse_prof_mode("off"), ProfMode::kOff);
  EXPECT_EQ(de::parse_prof_mode("attrib"), ProfMode::kAttrib);
  EXPECT_EQ(de::parse_prof_mode("attrib+hw"), ProfMode::kAttribHw);
  EXPECT_FALSE(de::parse_prof_mode("").has_value());
  EXPECT_FALSE(de::parse_prof_mode("hw").has_value());
  EXPECT_FALSE(de::parse_prof_mode("ATTRIB").has_value());
  for (auto m : {ProfMode::kOff, ProfMode::kAttrib, ProfMode::kAttribHw}) {
    EXPECT_EQ(de::parse_prof_mode(de::to_string(m)), m);
  }
}

TEST(ProfMode, EnvUnsetIsNullopt) {
  ScopedEnv guard("DJSTAR_PROF", nullptr);
  de::EngineConfig cfg;
  cfg.profiler.mode = de::ProfMode::kAttrib;
  EXPECT_EQ(djstar_test::with_env_overrides(cfg).profiler.mode,
            de::ProfMode::kAttrib);
}

TEST(ProfMode, EnvTrimsWhitespace) {
  ScopedEnv guard("DJSTAR_PROF", "  attrib+hw  ");
  EXPECT_EQ(djstar_test::with_env_overrides().profiler.mode,
            de::ProfMode::kAttribHw);
}

TEST(ProfMode, MalformedEnvThrows) {
  ScopedEnv guard("DJSTAR_PROF", nullptr);
  for (const char* bad : {"", "   ", "bogus", "attrib,hw", "on"}) {
    guard.set(bad);
    EXPECT_THROW(djstar_test::with_env_overrides(), std::invalid_argument)
        << "DJSTAR_PROF=\"" << bad << "\"";
  }
}

TEST(ProfMode, EnvAutoEnablesProfilerOnConstruction) {
  ScopedEnv guard("DJSTAR_PROF", "attrib");
  de::AudioEngine engine(base_config(Strategy::kSequential, 1));
  ASSERT_TRUE(engine.profiler_enabled());
  EXPECT_TRUE(engine.telemetry_enabled()) << "profiler implies telemetry";
  EXPECT_EQ(engine.profiler().config().mode, de::ProfMode::kAttrib);
  engine.run_cycles(3);
  EXPECT_EQ(engine.profiler().cycles_profiled(), 3u);
}

TEST(ProfMode, MalformedEnvFailsConstructionLoudly) {
  ScopedEnv guard("DJSTAR_PROF", "fastplease");
  EXPECT_THROW(de::AudioEngine engine(base_config(Strategy::kSequential, 1)),
               std::invalid_argument);
}

// ---- HwSampler graceful degradation ----------------------------------------

TEST(HwSampler, UnopenedSamplerIsUnavailable) {
  de::HwSampler hw;
  EXPECT_FALSE(hw.available());
  std::vector<de::HwCounters> out;
  EXPECT_FALSE(hw.sample(out));
  for (const de::HwCounters& c : out) {
    EXPECT_EQ(c.cycles, 0u);
    EXPECT_EQ(c.instructions, 0u);
  }
}

TEST(HwSampler, OpenWithNoValidTidsFailsCleanly) {
  de::HwSampler hw;
  EXPECT_FALSE(hw.open({}));
  const std::vector<std::int32_t> zeros = {0, 0};
  EXPECT_FALSE(hw.open(zeros));
  EXPECT_FALSE(hw.available());
  hw.close();  // double-close safe
  hw.close();
}

TEST(HwSampler, OpenIsBestEffortNeverFatal) {
  // Whether perf_event_open works here depends on the kernel and
  // perf_event_paranoid; both outcomes are valid. What must hold: no
  // crash, and sample() agrees with available().
  de::HwSampler hw;
  const std::vector<std::int32_t> tids = {de::HwSampler::self_tid()};
  const bool ok = hw.open(tids);
  EXPECT_EQ(ok, hw.available());
  std::vector<de::HwCounters> out;
  EXPECT_EQ(hw.sample(out), ok);
  if (ok) {
    EXPECT_EQ(out.size(), hw.workers());
    EXPECT_EQ(hw.totals().size(), hw.workers());
  }
}

TEST(HwSampler, AttribHwEngineRunsRegardlessOfKernelSupport) {
  de::EngineConfig cfg = base_config(Strategy::kBusyWait, 2);
  cfg.profiler.mode = de::ProfMode::kAttribHw;
  de::AudioEngine engine(cfg);
  engine.run_cycles(5);
  ASSERT_TRUE(engine.profiler_enabled());
  EXPECT_EQ(engine.profiler().cycles_profiled(), 5u);
  // The sampler is attached in attrib+hw mode even when unavailable.
  EXPECT_NE(engine.profiler().hw(), nullptr);
}

// ---- forced-stall blame attribution (acceptance) ----------------------------

TEST(ProfilerBlame, ForcedStallTopsTheBlameRanking) {
  de::EngineConfig cfg = base_config(Strategy::kSequential, 1);
  cfg.profiler.mode = de::ProfMode::kAttrib;
  de::AudioEngine engine(cfg);
  ASSERT_TRUE(engine.profiler_enabled());

  // Node 0 stalls 2x the deadline every cycle: every cycle misses, and
  // the report must finger node 0 even though no healthy baseline ever
  // formed (never-seen-healthy nodes are blamed for their full actual).
  engine.arm_faults(stall_node(0, 2.0 * cfg.deadline_us));
  engine.run_cycles(8);

  const de::CycleProfiler& prof = engine.profiler();
  EXPECT_EQ(prof.cycles_profiled(), 8u);
  EXPECT_EQ(prof.blame_reports(), 8u);

  const da::BlameReport& blame = prof.last_blame();
  ASSERT_TRUE(blame.valid);
  ASSERT_FALSE(blame.nodes.empty());
  EXPECT_EQ(blame.nodes[0].node, 0) << "stalled node must rank first";
  EXPECT_GT(blame.nodes[0].actual_us, cfg.deadline_us);
  EXPECT_TRUE(blame.nodes[0].on_path);

  // The same verdict reaches all three consumers: metrics, journal, JSON.
  const ds::MetricsSnapshot snap = engine.telemetry().registry().snapshot();
  if (const auto* m = find_metric(snap, "djstar_attrib_blame_reports_total")) {
    EXPECT_DOUBLE_EQ(m->value, 8.0);
  }
  if (const auto* m = find_metric(snap, "djstar_attrib_cycles_total")) {
    EXPECT_DOUBLE_EQ(m->value, 8.0);
  }

  bool saw_report = false, saw_entry = false;
  for (const ds::Event& e : engine.telemetry().journal().drain_all()) {
    if (e.kind == ds::EventKind::kBlameReport) {
      saw_report = true;
      EXPECT_EQ(e.a, 0) << "journal header carries the top node";
    }
    if (e.kind == ds::EventKind::kBlame) saw_entry = true;
  }
  EXPECT_TRUE(saw_report);
  EXPECT_TRUE(saw_entry);

  const std::string json = prof.attribution_json();
  EXPECT_NE(json.find("\"blame\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"makespan_us\""), std::string::npos);
}

TEST(ProfilerBlame, HealthyRunProducesNoReports) {
  de::EngineConfig cfg = base_config(Strategy::kBusyWait, 4);
  cfg.deadline_us = 10.0 * djstar::audio::kDeadlineUs;  // generous: no misses
  cfg.profiler.mode = de::ProfMode::kAttrib;
  de::AudioEngine engine(cfg);
  engine.run_cycles(10);
  // The profiler files one report per miss and none without one. A calm
  // host misses none of these deadlines; a loaded one (sanitizers, a
  // parallel test run) can miss one, and then its report must be there.
  const std::size_t misses = engine.monitor().misses();
  EXPECT_EQ(engine.profiler().blame_reports(), misses);
  EXPECT_EQ(engine.profiler().last_blame().valid, misses > 0);
  EXPECT_GT(engine.profiler().cp_ewma_us(), 0.0);
}

// ---- critical-path / makespan reconciliation (acceptance) -------------------

TEST(ProfilerReconciliation, PathSumMatchesMakespanOnEveryStrategy) {
  const Strategy strategies[] = {Strategy::kSequential, Strategy::kBusyWait,
                                 Strategy::kSleep, Strategy::kWorkStealing,
                                 Strategy::kSharedQueue};
  for (Strategy s : strategies) {
    SCOPED_TRACE(djstar::core::to_string(s));
    de::EngineConfig cfg =
        base_config(s, s == Strategy::kSequential ? 1u : 4u);
    cfg.profiler.mode = de::ProfMode::kAttrib;
    de::AudioEngine engine(cfg);
    engine.run_cycles(10);  // warm-up: allocators, cost model, page-in
    const de::CycleBreakdown c = engine.run_cycle();

    const da::CycleAttribution& at = engine.profiler().attribution();
    ASSERT_FALSE(at.empty());
    EXPECT_GT(at.makespan_us, 0.0);
    // The realized critical path telescopes: run + wait segments tile the
    // makespan. 5% is the acceptance bound; the construction is exact up
    // to float accumulation.
    EXPECT_NEAR(at.cp_run_us + at.cp_wait_us, at.makespan_us,
                0.05 * at.makespan_us);
    // The reconstructed makespan cannot exceed what the engine measured
    // around the whole cycle (spans are clipped inside the cycle).
    EXPECT_LE(at.makespan_us, 1.05 * c.total_us());
    // Every worker's buckets partition the same timeline.
    for (const da::WorkerBucket& w : at.workers) {
      EXPECT_NEAR(w.run_us + w.steal_idle_us + w.barrier_us + w.overhead_us,
                  at.makespan_us, 0.05 * at.makespan_us + 1.0);
    }
  }
}
