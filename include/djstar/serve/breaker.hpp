// djstar/serve/breaker.hpp
// Per-session circuit breaker (DESIGN.md §12): isolate a structurally
// failing session instead of letting it burn pool time every tick.
//
// State machine:
//   kClosed    normal service; K consecutive failed cycles (deadline
//              miss, faulted/cancelled cycle, or NaN output) trip it.
//   kOpen      session torn down (lightweight snapshot retained by the
//              host); a retry is due after an exponential backoff with
//              deterministic jitter.
//   kHalfOpen  probe: the session is rebuilt from its snapshot and must
//              complete `half_open_probes` consecutive clean cycles to
//              close; one more failure re-opens with escalated backoff.
//
// Determinism: the breaker sees only the fleet's virtual clock (never
// wall time) and its jitter comes from SplitMix64 over (seed, session
// id, trip count), so a replayed submission sequence trips, probes, and
// closes on exactly the same ticks.
#pragma once

#include <cstdint>
#include <string_view>

#include "djstar/serve/qos.hpp"

namespace djstar::serve {

/// Breaker policy. Default-disabled: trip_failures == 0 turns the whole
/// feature off (sessions fail forever in place, pre-breaker behaviour).
struct BreakerConfig {
  /// Consecutive failed cycles before tripping; 0 disables the breaker.
  unsigned trip_failures = 0;
  /// Base open-state backoff before the first probe (virtual time).
  double backoff_ms = 50.0;
  /// Backoff multiplier per successive trip of the same session.
  double backoff_factor = 2.0;
  /// Backoff ceiling.
  double max_backoff_ms = 5000.0;
  /// Jitter amplitude as a fraction of the backoff (+/-), decorrelating
  /// probe storms when many sessions trip on the same incident.
  double jitter_frac = 0.2;
  /// Consecutive clean half-open cycles required to close again.
  unsigned half_open_probes = 32;

  bool enabled() const noexcept { return trip_failures > 0; }

  /// Parse "K,backoff_ms" (e.g. "4,50"). Hardened like
  /// core/thread_count: whitespace is trimmed, anything else —
  /// empty string, missing comma, garbage numbers, negative backoff —
  /// throws std::invalid_argument. K == 0 is valid (explicitly off).
  static BreakerConfig parse(std::string_view text);
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
const char* to_string(BreakerState s) noexcept;

/// What a cycle report did to the breaker.
enum class BreakerEvent : std::uint8_t {
  kNone = 0,
  kTripped,  ///< closed/half-open -> open: tear the session down
  kClosed,   ///< half-open -> closed: probe succeeded, backoff reset
};

class CircuitBreaker {
 public:
  CircuitBreaker(const BreakerConfig& cfg, std::uint64_t seed,
                 SessionId id) noexcept;

  BreakerState state() const noexcept { return state_; }
  std::uint64_t trips() const noexcept { return trips_; }
  unsigned failure_streak() const noexcept { return fail_streak_; }
  /// Virtual time at which the next probe is due (kOpen only).
  double retry_at_us() const noexcept { return retry_at_us_; }
  /// Backoff that scheduled the pending probe, for journaling.
  double last_backoff_us() const noexcept { return last_backoff_us_; }

  /// Report a finished cycle. `failed` per the host's failure predicate,
  /// `now_us` the fleet's virtual clock. Never called while kOpen (the
  /// session does not exist then).
  BreakerEvent on_cycle(bool failed, double now_us) noexcept;

  /// kOpen and the backoff has elapsed: the host may rebuild the session
  /// and begin_probe().
  bool probe_due(double now_us) const noexcept {
    return state_ == BreakerState::kOpen && now_us >= retry_at_us_;
  }
  /// kOpen -> kHalfOpen; the restored session's cycles now count as
  /// probes.
  void begin_probe() noexcept;

 private:
  void open(double now_us) noexcept;
  double jittered_backoff_us() noexcept;

  BreakerConfig cfg_;
  std::uint64_t seed_;
  SessionId id_;
  BreakerState state_ = BreakerState::kClosed;
  unsigned fail_streak_ = 0;
  unsigned probe_streak_ = 0;
  std::uint64_t trips_ = 0;       // cumulative, never resets (stats/jitter)
  std::uint64_t escalation_ = 0;  // backoff exponent; reset on true close
  double retry_at_us_ = 0;
  double last_backoff_us_ = 0;
};

}  // namespace djstar::serve
