#include "djstar/serve/breaker.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "djstar/support/env.hpp"

namespace djstar::serve {
namespace {

namespace env = support::env;

[[noreturn]] void bad_value(std::string_view text, const char* why) {
  throw std::invalid_argument(
      "invalid breaker config '" + std::string(text) + "': " + why +
      " (expected K,backoff_ms — e.g. \"4,50\"; K = 0 disables)");
}

// Both fields clamp at 1e9, far past any sane value.
std::uint64_t parse_field(std::string_view full, std::string_view field,
                          const char* name) {
  const auto v = env::parse_uint(env::trim(field), 1'000'000'000ULL);
  if (!v) bad_value(full, name);
  return *v;
}

// SplitMix64: tiny, stateless, and good enough to decorrelate probe
// times; seeded per (host seed, session id, trip count) so replays are
// bit-identical.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BreakerConfig BreakerConfig::parse(std::string_view text) {
  const std::vector<std::string_view> fields = env::split(text);
  if (fields.size() != 2) {
    bad_value(text, fields.size() < 2 ? "missing comma" : "too many fields");
  }
  BreakerConfig cfg;
  cfg.trip_failures = static_cast<unsigned>(
      parse_field(text, fields[0], "malformed failure count"));
  const std::uint64_t ms = parse_field(text, fields[1], "malformed backoff");
  if (cfg.trip_failures > 0 && ms == 0) bad_value(text, "zero backoff");
  cfg.backoff_ms = static_cast<double>(ms);
  cfg.max_backoff_ms = std::max(cfg.max_backoff_ms, cfg.backoff_ms);
  return cfg;
}

const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(const BreakerConfig& cfg, std::uint64_t seed,
                               SessionId id) noexcept
    : cfg_(cfg), seed_(seed), id_(id) {}

BreakerEvent CircuitBreaker::on_cycle(bool failed, double now_us) noexcept {
  switch (state_) {
    case BreakerState::kClosed:
      if (!failed) {
        fail_streak_ = 0;
        return BreakerEvent::kNone;
      }
      if (++fail_streak_ < cfg_.trip_failures) return BreakerEvent::kNone;
      open(now_us);
      return BreakerEvent::kTripped;

    case BreakerState::kHalfOpen:
      if (failed) {
        // One failure during the probe re-opens immediately with the
        // escalated backoff — no second K-streak grace.
        open(now_us);
        return BreakerEvent::kTripped;
      }
      if (++probe_streak_ < cfg_.half_open_probes) return BreakerEvent::kNone;
      state_ = BreakerState::kClosed;
      fail_streak_ = 0;
      probe_streak_ = 0;
      escalation_ = 0;  // a genuinely recovered session earns base backoff
      return BreakerEvent::kClosed;

    case BreakerState::kOpen:
      break;  // no session exists; the host never reports cycles here
  }
  return BreakerEvent::kNone;
}

void CircuitBreaker::begin_probe() noexcept {
  state_ = BreakerState::kHalfOpen;
  probe_streak_ = 0;
}

void CircuitBreaker::open(double now_us) noexcept {
  state_ = BreakerState::kOpen;
  fail_streak_ = 0;
  probe_streak_ = 0;
  ++trips_;
  ++escalation_;
  last_backoff_us_ = jittered_backoff_us();
  retry_at_us_ = now_us + last_backoff_us_;
}

double CircuitBreaker::jittered_backoff_us() noexcept {
  // Exponential escalation while open/half-open flapping continues,
  // capped; escalation_ has already been bumped so the first trip uses
  // the base backoff. A true close resets the exponent.
  double ms = cfg_.backoff_ms;
  for (std::uint64_t i = 1; i < escalation_ && ms < cfg_.max_backoff_ms;
       ++i) {
    ms *= cfg_.backoff_factor;
  }
  ms = std::min(ms, cfg_.max_backoff_ms);
  // Deterministic symmetric jitter in [-jitter_frac, +jitter_frac].
  const std::uint64_t r = splitmix64(seed_ ^ (id_ * 0x9e3779b9ULL) ^ trips_);
  const double frac =
      static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
  ms *= 1.0 + cfg_.jitter_frac * (2.0 * frac - 1.0);
  return ms * 1000.0;
}

}  // namespace djstar::serve
