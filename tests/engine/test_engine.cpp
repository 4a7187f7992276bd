// Unit tests for the AudioEngine facade and the deadline monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "djstar/engine/engine.hpp"

namespace de = djstar::engine;
namespace dc = djstar::core;

namespace {
de::EngineConfig fast_config(dc::Strategy s = dc::Strategy::kSequential,
                             unsigned threads = 1) {
  de::EngineConfig cfg;
  cfg.strategy = s;
  cfg.threads = threads;
  return cfg;
}
}  // namespace

TEST(DeadlineMonitor, CountsCyclesAndMisses) {
  de::DeadlineMonitor m(100.0);
  m.add({10, 10, 10, 10});   // 40 total: ok
  m.add({50, 30, 30, 10});   // 120 total: miss
  EXPECT_EQ(m.cycles(), 2u);
  EXPECT_EQ(m.misses(), 1u);
  EXPECT_DOUBLE_EQ(m.miss_rate(), 0.5);
}

TEST(DeadlineMonitor, PhaseStatsAccumulate) {
  de::DeadlineMonitor m;
  m.add({1, 2, 3, 4});
  m.add({3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(m.tp().mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.graph().mean(), 4.0);
  EXPECT_DOUBLE_EQ(m.total().mean(), 14.0);
}

TEST(DeadlineMonitor, JudgesEachCycleAgainstItsBudget) {
  de::DeadlineMonitor m(100.0);
  EXPECT_FALSE(m.add({10, 10, 10, 10}));       // 40 against the deadline
  EXPECT_TRUE(m.add({10, 10, 10, 10}, 0, 30.0));  // 40 against 30
  EXPECT_FALSE(m.add({50, 30, 30, 10}, 1, 200.0));  // 120 against 200
  EXPECT_EQ(m.misses(), 1u);
  EXPECT_EQ(m.level_cycles(1), 1u);
  EXPECT_EQ(m.level_misses(0), 1u);
}

TEST(DeadlineMonitor, KeepsTheLastWindowInFixedStorage) {
  constexpr std::size_t kWindow = de::DeadlineMonitor::kWindow;
  de::DeadlineMonitor m(1e9);
  const double* graph = m.graph_samples().data();
  const double* total = m.total_samples().data();
  const std::size_t capacity = m.total_samples().capacity();
  ASSERT_GE(capacity, kWindow);
  // Three windows of cycles: the first two slower than every cycle of the
  // third, so the p99 shows which window it read.
  for (std::size_t i = 0; i < 3 * kWindow; ++i) {
    de::CycleBreakdown c;
    c.graph_us = i < 2 * kWindow ? 1000.0 : static_cast<double>(i % 100);
    m.add(c);
    ASSERT_EQ(m.total_samples().data(), total) << "cycle " << i;
    ASSERT_EQ(m.graph_samples().data(), graph) << "cycle " << i;
    ASSERT_EQ(m.total_samples().capacity(), capacity) << "cycle " << i;
    ASSERT_EQ(m.total_samples().size(), std::min(i + 1, kWindow));
  }
  EXPECT_EQ(m.cycles(), 3 * kWindow);
  EXPECT_EQ(m.graph_samples().size(), kWindow);
  EXPECT_DOUBLE_EQ(m.max_us(), 1000.0);
  EXPECT_LT(m.p99(), 100.0);
  m.reset();
  EXPECT_TRUE(m.total_samples().empty());
  EXPECT_EQ(m.total_samples().data(), total);
  EXPECT_EQ(m.total_samples().capacity(), capacity);
  EXPECT_DOUBLE_EQ(m.p99(), 0.0);
}

TEST(DeadlineMonitor, ResetClears) {
  de::DeadlineMonitor m;
  m.add({1, 1, 1, 1});
  m.reset();
  EXPECT_EQ(m.cycles(), 0u);
  EXPECT_EQ(m.total().count(), 0u);
  EXPECT_TRUE(m.graph_samples().empty());
}

TEST(CycleBreakdown, TotalSumsPhases) {
  de::CycleBreakdown c{1.5, 2.5, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(c.total_us(), 10.0);
}

TEST(AudioEngine, RunsAndProducesAudio) {
  de::AudioEngine e(fast_config());
  e.run_cycles(30);
  EXPECT_EQ(e.monitor().cycles(), 30u);
  EXPECT_GT(e.output().peak(), 0.001f);
  for (float s : e.output().raw()) ASSERT_TRUE(std::isfinite(s));
}

TEST(AudioEngine, BreakdownPhasesAreAllMeasured) {
  de::AudioEngine e(fast_config());
  const auto c = e.run_cycle();
  EXPECT_GT(c.tp_us, 0.0);
  EXPECT_GT(c.gp_us, 0.0);
  EXPECT_GT(c.graph_us, 0.0);
  EXPECT_GE(c.vc_us, 0.0);
}

TEST(AudioEngine, SetStrategySwitchesExecutor) {
  de::AudioEngine e(fast_config());
  EXPECT_EQ(e.executor().name(), "sequential");
  e.set_strategy(dc::Strategy::kWorkStealing, 2);
  EXPECT_EQ(e.executor().name(), "ws");
  EXPECT_EQ(e.threads(), 2u);
  e.run_cycles(5);
  EXPECT_EQ(e.monitor().cycles(), 5u);
}

TEST(AudioEngine, AllStrategiesRunTheEngine) {
  for (dc::Strategy s : dc::kAllStrategies) {
    de::AudioEngine e(fast_config(s, s == dc::Strategy::kSequential ? 1 : 2));
    e.run_cycles(10);
    EXPECT_EQ(e.monitor().cycles(), 10u) << dc::to_string(s);
    EXPECT_GT(e.output().peak(), 0.0f) << dc::to_string(s);
  }
}

TEST(AudioEngine, MeasureNodeDurationsCoversAllNodes) {
  de::AudioEngine e(fast_config());
  const auto durations = e.measure_node_durations(5);
  ASSERT_EQ(durations.size(), 67u);
  double sum = 0;
  for (double d : durations) {
    EXPECT_GE(d, 0.0);
    sum += d;
  }
  EXPECT_GT(sum, 1.0);  // the graph does real work
}

TEST(AudioEngine, MasterTempoConverges) {
  de::AudioEngine e(fast_config());
  e.run_cycles(300);
  // Decks at 120/124/128/132 bpm, pitch ~1 -> average ~126.
  EXPECT_NEAR(e.master_tempo_bpm(), 126.0, 10.0);
}

TEST(AudioEngine, DeadlineUsesConfiguredValue) {
  auto cfg = fast_config();
  cfg.deadline_us = 1.0;  // everything misses
  de::AudioEngine e(cfg);
  e.run_cycles(5);
  EXPECT_EQ(e.monitor().misses(), 5u);
}

TEST(AudioEngine, ParameterChangesReachTheGraph) {
  de::AudioEngine e(fast_config());
  e.run_cycles(20);
  const float before = e.output().rms();
  // Kill every channel fader: output should drop to (near) silence.
  for (unsigned d = 0; d < 4; ++d) e.graph_nodes().channel(d).set_fader(0.0f);
  e.graph_nodes().sampler().set_level(0.0f);
  e.run_cycles(50);
  EXPECT_LT(e.output().rms(), before * 0.2f);
}
