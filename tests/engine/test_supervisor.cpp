// CycleSupervisor: degradation ladder mechanics, recovery hysteresis,
// NaN patching, splice continuity, seed-exact reproducibility, and the
// monitor/set_strategy satellites. Deterministic scenarios only (huge
// or tiny deadlines, watchdog off); wall-clock-dependent coverage lives
// in the `faults` suite.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "djstar/engine/engine.hpp"
#include "djstar/engine/supervisor.hpp"

namespace de = djstar::engine;
namespace dc = djstar::core;

namespace {

bool all_finite(const djstar::audio::AudioBuffer& buf) {
  for (float s : buf.raw()) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

de::EngineConfig small_engine_config(double deadline_us) {
  de::EngineConfig cfg;
  cfg.strategy = dc::Strategy::kBusyWait;
  cfg.threads = 2;
  cfg.deadline_us = deadline_us;
  return cfg;
}

de::SupervisorConfig fast_trip_config() {
  de::SupervisorConfig sc;
  sc.fault_trip = 1;
  sc.recover_cycles = 1u << 30;  // no recovery unless a test lowers it
  sc.use_watchdog = false;       // keep scenarios wall-clock independent
  return sc;
}

dc::chaos::FaultPlan throw_every_node() {
  dc::chaos::FaultPlan plan;
  plan.seed = 9;
  plan.throw_permille = 1000;
  return plan;
}

}  // namespace

TEST(Supervisor, LadderStepsDownOneRungAtATimeOnFaults) {
  de::AudioEngine engine(small_engine_config(1e9));
  engine.enable_supervision(fast_trip_config());
  engine.arm_faults(throw_every_node());

  for (int i = 0; i < 6; ++i) {
    engine.run_cycle();
    EXPECT_TRUE(all_finite(engine.safe_output())) << "cycle " << i;
  }

  const auto& tr = engine.supervisor().transitions();
  ASSERT_EQ(tr.size(), 4u);  // kFull -> ... -> kSafeMode, one per cycle
  for (std::size_t i = 0; i < tr.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned>(tr[i].to),
              static_cast<unsigned>(tr[i].from) + 1)
        << "transition " << i << " skipped a rung";
  }
  EXPECT_EQ(engine.supervisor().level(), de::DegradationLevel::kSafeMode);
  // Safe-mode cycles emit fallback packets and never run the graph.
  EXPECT_GE(engine.supervisor().stats().fallback_emissions, 4u);
}

TEST(Supervisor, ConsecutiveOverrunsTripOneRung) {
  // A deadline no real cycle can meet: every cycle is an overrun, and
  // every overrun_trip-th one steps down exactly one rung.
  de::AudioEngine engine(small_engine_config(1e-3));
  auto sc = fast_trip_config();
  sc.overrun_trip = 3;
  engine.enable_supervision(sc);

  for (int i = 0; i < 7; ++i) engine.run_cycle();

  const auto& tr = engine.supervisor().transitions();
  ASSERT_EQ(tr.size(), 2u);  // cycles 3 and 6
  EXPECT_EQ(tr[0].reason, de::CycleOutcome::kOverrun);
  EXPECT_EQ(tr[0].from, de::DegradationLevel::kFull);
  EXPECT_EQ(tr[0].to, de::DegradationLevel::kBypassFx);
  EXPECT_EQ(tr[1].to, de::DegradationLevel::kNoStretch);
  EXPECT_EQ(engine.supervisor().stats().overruns, 7u);
}

TEST(Supervisor, RecoveryHysteresisClimbsBackOneRungAtATime) {
  de::AudioEngine engine(small_engine_config(1e9));
  auto sc = fast_trip_config();
  sc.recover_cycles = 8;
  engine.enable_supervision(sc);

  engine.arm_faults(throw_every_node());
  engine.run_cycle();
  engine.run_cycle();
  ASSERT_EQ(engine.supervisor().level(), de::DegradationLevel::kNoStretch);
  engine.disarm_faults();

  for (int i = 0; i < 20; ++i) engine.run_cycle();

  EXPECT_EQ(engine.supervisor().level(), de::DegradationLevel::kFull);
  EXPECT_EQ(engine.supervisor().stats().recoveries, 2u);
  const auto& tr = engine.supervisor().transitions();
  ASSERT_EQ(tr.size(), 4u);  // 2 down + 2 up
  EXPECT_EQ(tr[2].from, de::DegradationLevel::kNoStretch);
  EXPECT_EQ(tr[2].to, de::DegradationLevel::kBypassFx);
  EXPECT_EQ(tr[2].reason, de::CycleOutcome::kClean);
  EXPECT_EQ(tr[3].to, de::DegradationLevel::kFull);
}

TEST(Supervisor, NanOutputIsPatchedToFiniteAudio) {
  de::AudioEngine engine(small_engine_config(1e9));
  auto sc = fast_trip_config();
  sc.recover_cycles = 4;
  engine.enable_supervision(sc);

  dc::chaos::FaultPlan plan;
  plan.seed = 17;
  plan.nan_permille = 40;
  engine.arm_faults(plan);

  int raw_nan_cycles = 0;
  for (int i = 0; i < 60; ++i) {
    engine.run_cycle();
    if (!all_finite(engine.output())) ++raw_nan_cycles;
    ASSERT_TRUE(all_finite(engine.safe_output())) << "cycle " << i;
  }
  // The injection must actually have corrupted raw packets, and the
  // supervisor must have caught every one.
  EXPECT_GT(raw_nan_cycles, 0);
  EXPECT_GT(engine.supervisor().stats().nan_patches, 0u);
}

TEST(Supervisor, FallbackSpliceHasNoClick) {
  de::AudioEngine engine(small_engine_config(1e9));
  auto sc = fast_trip_config();
  sc.recover_cycles = 2;  // climb back quickly after the burst
  engine.enable_supervision(sc);

  // Warm up with clean cycles so last_good_ holds real audio.
  for (int i = 0; i < 20; ++i) engine.run_cycle();

  const auto& out = engine.safe_output();
  float prev_last[2] = {0.0f, 0.0f};
  for (std::size_t ch = 0; ch < 2; ++ch) {
    prev_last[ch] = out.at(ch, out.frames() - 1);
  }

  bool prev_fallback = false;
  auto check_boundary = [&](int cycle) {
    const auto before = engine.supervisor().stats().fallback_emissions;
    engine.run_cycle();
    const bool this_fallback =
        engine.supervisor().stats().fallback_emissions != before;
    ASSERT_TRUE(all_finite(out)) << "cycle " << cycle;
    if (this_fallback || prev_fallback) {
      // Any boundary where a fallback packet is involved must be
      // crossfaded: with a 16-frame ramp the first-sample jump is
      // bounded by |content - tail| / 16 <= 2/16.
      for (std::size_t ch = 0; ch < 2; ++ch) {
        EXPECT_LE(std::abs(out.at(ch, 0) - prev_last[ch]), 0.25f)
            << "hard click at splice, cycle " << cycle << " ch " << ch;
      }
    }
    for (std::size_t ch = 0; ch < 2; ++ch) {
      prev_last[ch] = out.at(ch, out.frames() - 1);
    }
    prev_fallback = this_fallback;
  };

  // Fault burst: four fault cycles ride the ladder down to safe mode,
  // then two safe-mode cycles — all six emit faded fallback packets.
  engine.arm_faults(throw_every_node());
  for (int i = 0; i < 6; ++i) check_boundary(i);
  const auto during = engine.supervisor().stats().fallback_emissions;
  EXPECT_GE(during, 6u);

  // Recovery: fallback -> real boundary must be ramped too, and real
  // cycles stop consuming fallback packets.
  engine.disarm_faults();
  for (int i = 6; i < 14; ++i) check_boundary(i);
  EXPECT_LE(engine.supervisor().stats().fallback_emissions, during + 1);
  EXPECT_LT(engine.supervisor().level(), de::DegradationLevel::kSafeMode);
}

TEST(Supervisor, TransitionsExactlyReproducibleFromFaultSeed) {
  auto run = [] {
    de::AudioEngine engine(small_engine_config(1e9));
    auto sc = fast_trip_config();
    sc.recover_cycles = 6;
    engine.enable_supervision(sc);
    dc::chaos::FaultPlan plan;
    plan.seed = 23;
    plan.throw_permille = 25;
    plan.nan_permille = 10;
    engine.arm_faults(plan);
    for (int i = 0; i < 300; ++i) engine.run_cycle();
    return engine.supervisor().transitions();
  };

  const auto first = run();
  const auto second = run();
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cycle, second[i].cycle) << "transition " << i;
    EXPECT_EQ(first[i].from, second[i].from) << "transition " << i;
    EXPECT_EQ(first[i].to, second[i].to) << "transition " << i;
    EXPECT_EQ(first[i].reason, second[i].reason) << "transition " << i;
  }
}

TEST(Supervisor, SetStrategyPreservesSupervisionAndMonitorState) {
  de::AudioEngine engine(small_engine_config(1e9));
  engine.enable_supervision(fast_trip_config());
  engine.arm_faults(throw_every_node());
  engine.run_cycle();
  engine.run_cycle();
  engine.disarm_faults();

  ASSERT_EQ(engine.supervisor().level(), de::DegradationLevel::kNoStretch);
  const auto transitions_before = engine.supervisor().transitions().size();
  const auto cycles_before = engine.monitor().cycles();

  // Find an FX node and confirm the degradation mask survives the swap.
  dc::NodeId fx_node = 0;
  for (dc::NodeId n = 0; n < engine.compiled().node_count(); ++n) {
    if (engine.graph_nodes().degrade_tier(n) == de::DegradeTier::kFxBypass) {
      fx_node = n;
      break;
    }
  }
  ASSERT_TRUE(engine.compiled().node_masked(fx_node));

  engine.set_strategy(dc::Strategy::kSleep, 2);

  EXPECT_EQ(engine.supervisor().level(), de::DegradationLevel::kNoStretch);
  EXPECT_EQ(engine.supervisor().transitions().size(), transitions_before);
  EXPECT_EQ(engine.monitor().cycles(), cycles_before)
      << "set_strategy() silently reset the monitor";
  EXPECT_TRUE(engine.compiled().node_masked(fx_node));

  // And the rebuilt executor runs supervised cycles as before.
  engine.run_cycle();
  EXPECT_TRUE(all_finite(engine.safe_output()));
  EXPECT_EQ(engine.monitor().cycles(), cycles_before + 1);
}

TEST(Supervisor, DeckDegradationPreservesKeylockPreference) {
  de::AudioEngine engine(small_engine_config(1e9));
  auto& deck = engine.deck(0);
  deck.set_keylock(true);
  deck.set_stretch_degraded(true);
  EXPECT_TRUE(deck.keylock()) << "degradation clobbered the user setting";
  EXPECT_TRUE(deck.stretch_degraded());
  deck.set_stretch_degraded(false);
  EXPECT_TRUE(deck.keylock());
}

TEST(Supervisor, MonitorTracksPerLevelStatsAndQuantiles) {
  de::AudioEngine engine(small_engine_config(1e9));
  auto sc = fast_trip_config();
  engine.enable_supervision(sc);

  for (int i = 0; i < 10; ++i) engine.run_cycle();
  engine.arm_faults(throw_every_node());
  for (int i = 0; i < 4; ++i) engine.run_cycle();
  engine.disarm_faults();

  const auto& m = engine.monitor();
  std::size_t level_sum = 0;
  for (unsigned l = 0; l < de::DeadlineMonitor::kMaxLevels; ++l) {
    level_sum += m.level_cycles(l);
  }
  EXPECT_EQ(level_sum, m.cycles());
  EXPECT_EQ(m.level_cycles(0), 11u);  // 10 clean + the first fault cycle
  EXPECT_GT(m.p99(), 0.0);
  EXPECT_LE(m.p99(), m.max_us());
  EXPECT_GE(m.p99(), m.total().min());
}

TEST(Supervisor, MonitorReserveSurvivesReset) {
  // The window's storage is allocated at construction; neither cycles
  // nor reset() move it, so add() never allocates.
  de::DeadlineMonitor m(1000.0);
  const double* total = m.total_samples().data();
  const double* graph = m.graph_samples().data();
  EXPECT_GE(m.total_samples().capacity(), de::DeadlineMonitor::kWindow);
  de::CycleBreakdown c;
  c.graph_us = 10.0;
  for (int i = 0; i < 100; ++i) m.add(c);
  m.reset();
  EXPECT_EQ(m.cycles(), 0u);
  EXPECT_EQ(m.total_samples().data(), total);
  EXPECT_EQ(m.graph_samples().data(), graph);
  EXPECT_GE(m.total_samples().capacity(), de::DeadlineMonitor::kWindow);
  EXPECT_GE(m.graph_samples().capacity(), de::DeadlineMonitor::kWindow);
  EXPECT_DOUBLE_EQ(m.p99(), 0.0);
}
