// Unit tests for the per-session circuit breaker (serve/breaker.hpp):
// state machine transitions, backoff escalation with deterministic
// jitter, and the strict DJSTAR_BREAKER parsing contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "common/env.hpp"
#include "djstar/serve/breaker.hpp"
#include "djstar/serve/host.hpp"

namespace ds = djstar::serve;

namespace {

ds::BreakerConfig small_breaker() {
  ds::BreakerConfig cfg;
  cfg.trip_failures = 3;
  cfg.backoff_ms = 10.0;
  cfg.backoff_factor = 2.0;
  cfg.max_backoff_ms = 100.0;
  cfg.jitter_frac = 0.2;
  cfg.half_open_probes = 2;
  return cfg;
}

}  // namespace

TEST(BreakerConfig, ParseAcceptsKCommaBackoff) {
  const auto cfg = ds::BreakerConfig::parse("4,50");
  EXPECT_EQ(cfg.trip_failures, 4u);
  EXPECT_EQ(cfg.backoff_ms, 50.0);
  EXPECT_TRUE(cfg.enabled());

  const auto ws = ds::BreakerConfig::parse("  8 , 250  ");
  EXPECT_EQ(ws.trip_failures, 8u);
  EXPECT_EQ(ws.backoff_ms, 250.0);

  // K == 0 is a valid explicit "disabled".
  EXPECT_FALSE(ds::BreakerConfig::parse("0,50").enabled());
}

TEST(BreakerConfig, ParseRejectsGarbage) {
  for (const char* bad : {"", "4", "4,", ",50", "4,,50", "4,50,2", "-1,50",
                          "4,-50", "+4,50", "x,50", "4,y", "4,0"}) {
    EXPECT_THROW(ds::BreakerConfig::parse(bad), std::invalid_argument)
        << "accepted: '" << bad << "'";
  }
}

TEST(BreakerConfig, EnvUnsetReturnsNulloptSetGoesThroughParse) {
  // serve::EngineHost applies DJSTAR_BREAKER in its constructor.
  ds::HostConfig one_thread;
  one_thread.threads = 1;
  djstar_test::ScopedEnv guard("DJSTAR_BREAKER", nullptr);
  EXPECT_FALSE(ds::EngineHost(one_thread).config().breaker.enabled());
  guard.set("5,75");
  {
    const ds::EngineHost host(one_thread);
    EXPECT_EQ(host.config().breaker.trip_failures, 5u);
    EXPECT_EQ(host.config().breaker.backoff_ms, 75.0);
  }
  guard.set("garbage");
  EXPECT_THROW(ds::EngineHost host(one_thread), std::invalid_argument);
}

TEST(CircuitBreaker, TripsAfterKConsecutiveFailuresOnly) {
  ds::CircuitBreaker br(small_breaker(), /*seed=*/1, /*id=*/7);
  double now = 0;

  // Two failures, then success: streak resets, no trip.
  EXPECT_EQ(br.on_cycle(true, now), ds::BreakerEvent::kNone);
  EXPECT_EQ(br.on_cycle(true, now), ds::BreakerEvent::kNone);
  EXPECT_EQ(br.on_cycle(false, now), ds::BreakerEvent::kNone);
  EXPECT_EQ(br.state(), ds::BreakerState::kClosed);

  // Three in a row: trip.
  EXPECT_EQ(br.on_cycle(true, now), ds::BreakerEvent::kNone);
  EXPECT_EQ(br.on_cycle(true, now), ds::BreakerEvent::kNone);
  EXPECT_EQ(br.on_cycle(true, now), ds::BreakerEvent::kTripped);
  EXPECT_EQ(br.state(), ds::BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 1u);
  EXPECT_GT(br.retry_at_us(), now);
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnStreakReopensOnFailure) {
  ds::CircuitBreaker br(small_breaker(), 1, 7);
  for (int i = 0; i < 3; ++i) br.on_cycle(true, 0.0);
  ASSERT_EQ(br.state(), ds::BreakerState::kOpen);

  EXPECT_FALSE(br.probe_due(br.retry_at_us() - 1.0));
  EXPECT_TRUE(br.probe_due(br.retry_at_us()));
  br.begin_probe();
  EXPECT_EQ(br.state(), ds::BreakerState::kHalfOpen);

  // One failure during the probe re-opens immediately (no K grace).
  EXPECT_EQ(br.on_cycle(true, 1000.0), ds::BreakerEvent::kTripped);
  EXPECT_EQ(br.state(), ds::BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 2u);

  // Successful probe: half_open_probes clean cycles close it again.
  br.begin_probe();
  EXPECT_EQ(br.on_cycle(false, 2000.0), ds::BreakerEvent::kNone);
  EXPECT_EQ(br.on_cycle(false, 2000.0), ds::BreakerEvent::kClosed);
  EXPECT_EQ(br.state(), ds::BreakerState::kClosed);
}

TEST(CircuitBreaker, BackoffEscalatesAndIsCapped) {
  ds::BreakerConfig cfg = small_breaker();
  cfg.jitter_frac = 0.0;  // isolate the exponential schedule
  ds::CircuitBreaker br(cfg, 1, 7);

  double prev = 0;
  for (int trip = 0; trip < 6; ++trip) {
    if (br.state() == ds::BreakerState::kOpen) br.begin_probe();
    while (br.state() != ds::BreakerState::kOpen) br.on_cycle(true, 0.0);
    const double backoff = br.last_backoff_us();
    EXPECT_GE(backoff, prev) << "backoff shrank on trip " << trip;
    EXPECT_LE(backoff, cfg.max_backoff_ms * 1000.0);
    prev = backoff;
  }
  // 10ms * 2^5 = 320ms, so the 100ms cap must be in force by now.
  EXPECT_EQ(prev, cfg.max_backoff_ms * 1000.0);
}

TEST(CircuitBreaker, JitterIsDeterministicPerSeedAndId) {
  const ds::BreakerConfig cfg = small_breaker();
  ds::CircuitBreaker a(cfg, 42, 3);
  ds::CircuitBreaker b(cfg, 42, 3);
  ds::CircuitBreaker other_id(cfg, 42, 4);

  for (int i = 0; i < 3; ++i) a.on_cycle(true, 0.0);
  for (int i = 0; i < 3; ++i) b.on_cycle(true, 0.0);
  for (int i = 0; i < 3; ++i) other_id.on_cycle(true, 0.0);

  // Same (seed, id, trip count) -> identical backoff: replays reproduce
  // probe timing exactly. A different session decorrelates.
  EXPECT_EQ(a.last_backoff_us(), b.last_backoff_us());
  EXPECT_NE(a.last_backoff_us(), other_id.last_backoff_us());

  // Jitter stays within +/- jitter_frac of the base backoff.
  const double base = cfg.backoff_ms * 1000.0;
  EXPECT_GE(a.last_backoff_us(), base * (1.0 - cfg.jitter_frac));
  EXPECT_LE(a.last_backoff_us(), base * (1.0 + cfg.jitter_frac));
}

TEST(CircuitBreaker, ClosingResetsBackoffToBase) {
  ds::BreakerConfig cfg = small_breaker();
  cfg.jitter_frac = 0.0;
  cfg.half_open_probes = 1;
  ds::CircuitBreaker br(cfg, 1, 7);

  // Escalate through two trips: backoff is now 20ms.
  for (int i = 0; i < 3; ++i) br.on_cycle(true, 0.0);
  br.begin_probe();
  br.on_cycle(true, 0.0);
  EXPECT_EQ(br.last_backoff_us(), 20.0 * 1000.0);

  // A genuine close (clean probe streak) resets the escalation: the
  // next trip starts over from the base backoff, while the cumulative
  // trip count keeps counting for stats and jitter decorrelation.
  br.begin_probe();
  EXPECT_EQ(br.on_cycle(false, 0.0), ds::BreakerEvent::kClosed);
  for (int i = 0; i < 3; ++i) br.on_cycle(true, 0.0);
  EXPECT_EQ(br.trips(), 3u);
  EXPECT_EQ(br.last_backoff_us(), 10.0 * 1000.0);
}
