// Tests for the SLO engine core (DESIGN.md §15): SRE-default window
// derivation, burn-rate math over a hand-driven time-series store, the
// stepwise ok → warn → page state machine with hysteresis recovery, the
// hardened DJSTAR_SLO env hook (every malformed form throws), and the
// Prometheus exposition of the labeled build-info gauge.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>
#include "common/env.hpp"
#include "common/prometheus_check.hpp"
#include "djstar/support/build_info.hpp"
#include "djstar/support/metrics.hpp"
#include "djstar/support/slo.hpp"
#include "djstar/support/tsdb.hpp"

namespace ds = djstar::support;

using djstar_test::ScopedEnv;

namespace {

// Tiny deterministic geometry: page pair = last 1 / last 2 windows,
// warn pair = last 2 / last 4, two clean evaluations per de-escalation.
ds::SloWindows tiny_windows() {
  ds::SloWindows w;
  w.fast_short = 1;
  w.fast_long = 2;
  w.slow_short = 2;
  w.slow_long = 4;
  w.recover_evals = 2;
  return w;
}

ds::TsdbConfig tiny_tsdb() {
  ds::TsdbConfig cfg;
  cfg.window_us = 100.0;
  cfg.retention = 16;
  return cfg;
}

/// One sealed window of `n` cycles, `missed` of them late, `bad` of
/// them structurally broken; then one evaluation.
bool feed_window(ds::TimeSeriesStore& store, ds::SloTracker& tr, int n,
                 int missed, int bad, double& now_us) {
  for (int i = 0; i < n; ++i) {
    tr.record_cycle(i < missed ? 150.0 : 50.0, i < missed, i >= bad);
  }
  now_us += store.window_us();
  store.advance(now_us);
  return tr.evaluate();
}

/// The SloConfig an engine resolves from DJSTAR_SLO.
ds::SloConfig slo_from_env() {
  return djstar_test::with_env_overrides().slo;
}

}  // namespace

TEST(SloWindows, SreDefaultsScaleWithTheWindow) {
  const ds::SloWindows w = ds::SloWindows::sre_defaults(1'000'000.0);
  EXPECT_EQ(w.fast_short, 300u);    // 5 m of 1 s windows
  EXPECT_EQ(w.fast_long, 3600u);    // 1 h
  EXPECT_EQ(w.slow_short, 1800u);   // 30 m
  EXPECT_EQ(w.slow_long, 21600u);   // 6 h
  EXPECT_TRUE(w.valid());

  // A gigantic window still yields a usable (clamped) geometry.
  const ds::SloWindows huge = ds::SloWindows::sre_defaults(1e10);
  EXPECT_EQ(huge.fast_short, 1u);
  EXPECT_EQ(huge.fast_long, 1u);
  EXPECT_TRUE(huge.valid());

  EXPECT_FALSE(ds::SloWindows{}.valid());  // zeroed counts = derive later
}

TEST(SloTracker, StepwiseEscalationWarnAlwaysPrecedesPage) {
  ds::TimeSeriesStore store(tiny_tsdb());
  ds::SloSpec spec;
  spec.miss_ratio = 0.01;
  ds::SloTracker tr(store, "t", spec, tiny_windows());
  EXPECT_EQ(tr.status().state, ds::SloAlertState::kOk);
  double now = 0;

  // 100% miss burst: both window pairs fire instantly, but escalation is
  // stepwise — warn at the first seal, page at the second.
  EXPECT_TRUE(feed_window(store, tr, 10, 10, 0, now));
  EXPECT_EQ(tr.status().state, ds::SloAlertState::kWarn);
  EXPECT_TRUE(tr.status().miss.page_firing);

  EXPECT_TRUE(feed_window(store, tr, 10, 10, 0, now));
  EXPECT_EQ(tr.status().state, ds::SloAlertState::kPage);
  EXPECT_DOUBLE_EQ(tr.status().budget_remaining, 0.0);
}

TEST(SloTracker, HysteresisRecoveryStepsDownSlowly) {
  ds::TimeSeriesStore store(tiny_tsdb());
  ds::SloSpec spec;
  spec.miss_ratio = 0.01;
  ds::SloTracker tr(store, "t", spec, tiny_windows());
  double now = 0;
  feed_window(store, tr, 10, 10, 0, now);  // -> warn
  feed_window(store, tr, 10, 10, 0, now);  // -> page

  // Clean windows. The slow pair still covers the burst for a while, so
  // the state holds; only after recover_evals consecutive clean
  // evaluations does it step page -> warn -> ok.
  std::vector<ds::SloAlertState> states;
  for (int i = 0; i < 6; ++i) {
    feed_window(store, tr, 10, 0, 0, now);
    states.push_back(tr.status().state);
  }
  const std::vector<ds::SloAlertState> want = {
      ds::SloAlertState::kPage, ds::SloAlertState::kPage,
      ds::SloAlertState::kWarn, ds::SloAlertState::kWarn,
      ds::SloAlertState::kOk,   ds::SloAlertState::kOk};
  EXPECT_EQ(states, want);
  EXPECT_DOUBLE_EQ(tr.status().budget_remaining, 1.0);
}

TEST(SloTracker, AvailabilityObjectiveBurnsOnBadCycles) {
  ds::TimeSeriesStore store(tiny_tsdb());
  ds::SloSpec spec;          // availability budget = 1 - 0.999 = 0.1%
  spec.miss_ratio = 0.5;     // effectively disable the miss objective
  ds::SloTracker tr(store, "t", spec, tiny_windows());
  double now = 0;
  // No deadline misses, but 2 of 10 cycles faulted: availability burn =
  // (0.2 / 0.001) = 200 >> both thresholds.
  feed_window(store, tr, 10, 0, 2, now);
  EXPECT_EQ(tr.status().state, ds::SloAlertState::kWarn);
  EXPECT_TRUE(tr.status().avail.page_firing);
  EXPECT_FALSE(tr.status().miss.warn_firing);
}

TEST(SloTracker, LatencyObjectiveOnlyWhenConfigured) {
  ds::TimeSeriesStore store(tiny_tsdb());
  ds::SloSpec spec;
  spec.miss_ratio = 0.5;
  spec.p99_us = 100.0;  // the 150 us "missed" cycles are also slow
  spec.p99_budget = 0.01;
  ds::SloTracker tr(store, "t", spec, tiny_windows());
  double now = 0;
  // 3 of 10 cycles at 150 us (> p99 target), none counted as missed.
  for (int i = 0; i < 10; ++i) tr.record_cycle(i < 3 ? 150.0 : 50.0, false, true);
  now += store.window_us();
  store.advance(now);
  tr.evaluate();
  EXPECT_TRUE(tr.status().latency.warn_firing);
  EXPECT_EQ(tr.status().state, ds::SloAlertState::kWarn);

  // Same traffic, latency objective off: nothing fires.
  ds::TimeSeriesStore store2(tiny_tsdb());
  ds::SloSpec off = spec;
  off.p99_us = 0;
  ds::SloTracker tr2(store2, "t", off, tiny_windows());
  double now2 = 0;
  EXPECT_FALSE(feed_window(store2, tr2, 10, 0, 0, now2));
  EXPECT_EQ(tr2.status().state, ds::SloAlertState::kOk);
}

TEST(SloTracker, EvaluateIsSealGated) {
  ds::TimeSeriesStore store(tiny_tsdb());
  ds::SloTracker tr(store, "t", ds::SloSpec{}, tiny_windows());
  tr.record_cycle(50.0, false, true);
  EXPECT_FALSE(tr.evaluate());  // nothing sealed yet
  EXPECT_EQ(tr.status().evals, 0u);
  store.advance(100.0);
  EXPECT_FALSE(tr.evaluate());  // evaluated, no state change
  EXPECT_EQ(tr.status().evals, 1u);
  EXPECT_FALSE(tr.evaluate());  // same seal: no-op
  EXPECT_EQ(tr.status().evals, 1u);
}

TEST(SloTracker, AppendJsonCarriesAllThreeObjectives) {
  ds::TimeSeriesStore store(tiny_tsdb());
  ds::SloTracker tr(store, "t", ds::SloSpec{}, tiny_windows());
  double now = 0;
  feed_window(store, tr, 10, 0, 0, now);
  std::string out;
  tr.append_json(out);
  EXPECT_NE(out.find("\"state\":\"ok\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"miss\""), std::string::npos);
  EXPECT_NE(out.find("\"latency\""), std::string::npos);
  EXPECT_NE(out.find("\"availability\""), std::string::npos);
  EXPECT_NE(out.find("\"budget_remaining\":1.0000"), std::string::npos)
      << out;
}

TEST(SloTracker, DestructionReleasesItsSeries) {
  ds::TimeSeriesStore store(tiny_tsdb());
  {
    ds::SloTracker tr(store, "gone", ds::SloSpec{}, tiny_windows());
    EXPECT_EQ(store.series_count(), 4u);
  }
  EXPECT_EQ(store.series_count(), 0u);
  // The prefix is reusable afterwards — session ids can recur.
  ds::SloTracker again(store, "gone", ds::SloSpec{}, tiny_windows());
  EXPECT_EQ(store.series_count(), 4u);
}

// ---- DJSTAR_SLO env hook ---------------------------------------------------

TEST(SloEnv, UnsetReturnsNullopt) {
  ScopedEnv guard("DJSTAR_SLO", nullptr);
  djstar::engine::EngineConfig cfg;
  cfg.slo.enabled = true;
  cfg.slo.spec.miss_ratio = 0.3;
  const ds::SloConfig slo = djstar_test::with_env_overrides(cfg).slo;
  EXPECT_TRUE(slo.enabled);
  EXPECT_DOUBLE_EQ(slo.spec.miss_ratio, 0.3);
}

TEST(SloEnv, ValidFormsParse) {
  ScopedEnv guard("DJSTAR_SLO", "off");
  ds::SloConfig cfg = slo_from_env();
  EXPECT_FALSE(cfg.enabled);

  guard.set("on");
  cfg = slo_from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.spec.miss_ratio, ds::SloSpec{}.miss_ratio);

  guard.set("on,0.01");
  cfg = slo_from_env();
  EXPECT_DOUBLE_EQ(cfg.spec.miss_ratio, 0.01);
  EXPECT_DOUBLE_EQ(cfg.spec.p99_us, 0.0);

  guard.set("on,0.01,5000");
  cfg = slo_from_env();
  EXPECT_DOUBLE_EQ(cfg.spec.miss_ratio, 0.01);
  EXPECT_DOUBLE_EQ(cfg.spec.p99_us, 5000.0);

  // Whitespace around fields is tolerated (shell-quoting artifacts).
  guard.set("  on , 0.01 , 5000  ");
  cfg = slo_from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.spec.p99_us, 5000.0);
}

TEST(SloEnv, EveryMalformedFormThrows) {
  ScopedEnv guard("DJSTAR_SLO", nullptr);
  const char* bad[] = {
      "",              // set-but-empty
      "   ",           // whitespace only
      "bogus",         // unknown mode
      "ON",            // case matters (metrics-style strictness)
      "on,",           // trailing empty field
      ",on",           // leading empty field
      "on,,5000",      // empty middle field
      "on,abc",        // non-numeric ratio
      "on,-0.1",       // negative ratio
      "on,0",          // zero ratio (nothing would ever alert)
      "on,1.5",        // ratio > 1
      "on,1.0",        // a full budget never alerts
      "on,0.01,",      // trailing empty p99 field
      "on,0.01,abc",   // non-numeric p99
      "on,0.01,-5",    // negative p99
      "on,0.01,0",     // zero p99 (field present means objective on)
      "on,0.01,5000,9",// too many fields
      "off,0.01",      // off takes no arguments
  };
  for (const char* v : bad) {
    guard.set(v);
    EXPECT_THROW((void)slo_from_env(), std::invalid_argument)
        << "value accepted: '" << v << "'";
  }
}

// ---- build info ------------------------------------------------------------

TEST(BuildInfo, LabeledGaugeValidatesAsPrometheus) {
  ds::MetricsRegistry reg;
  ds::Gauge uptime = ds::register_build_info(reg);
  uptime.set(ds::process_uptime_seconds());

  const std::string text = reg.prometheus();
  EXPECT_EQ(djstar_test::validate_prometheus(text), "") << text;
  EXPECT_NE(text.find("djstar_build_info{version=\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("sanitizer=\""), std::string::npos);
  EXPECT_NE(text.find("djstar_build_info{"), std::string::npos);
  EXPECT_NE(text.find("djstar_uptime_seconds"), std::string::npos);

  // The constant-1 convention: the value is 1, the info is in labels.
  for (const ds::MetricValue& m : reg.snapshot().metrics) {
    if (m.name == "djstar_build_info") {
      EXPECT_EQ(m.value, 1.0);
      EXPECT_NE(m.labels.find("version="), std::string::npos);
    }
    if (m.name == "djstar_uptime_seconds") EXPECT_GE(m.value, 0.0);
  }

  const ds::BuildInfoFields f = ds::build_info();
  EXPECT_NE(f.version, nullptr);
  EXPECT_NE(f.git_sha, nullptr);
  EXPECT_NE(f.sanitizer, nullptr);
}
