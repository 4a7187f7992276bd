// djstar/support/slo.hpp
// Declarative SLOs with multi-window multi-burn-rate alerting
// (DESIGN.md §15).
//
// The paper's objective — ≤5 missed deadlines in 10k APCs — is a ratio
// over time, not an instantaneous counter. An SloTracker watches one
// scope (the engine, the fleet, one QoS class, or one session) against a
// declarative SloSpec of three objectives:
//
//   - deadline-miss ratio (the verdict of the owner's
//     DeadlineMonitor::add: total_us > the cycle's budget),
//   - p99 cycle latency (fraction of cycles slower than a target),
//   - availability (fraction of cycles that completed cleanly —
//     faults, cancellations, NaN flushes, and safe-mode fallbacks are
//     "down").
//
// Each objective burns an error budget. Following the Google SRE
// workbook, an objective *pages* when a fast window pair (5 m and 1 h at
// the default 1 s tsdb window) both burn faster than `fast_burn`×
// budget, and *warns* when a slow pair (30 m / 6 h) both exceed
// `slow_burn`× — the short window makes alerts recover quickly, the
// long window filters blips. Window lengths are expressed in tsdb
// windows and scale with the store's (virtual) clock, which is what
// makes the whole state machine deterministic under test.
//
// Escalation is stepwise with hysteresis: ok → warn → page one level per
// sealed-window evaluation, and one level back down only after
// `recover_evals` consecutive clean evaluations. A page is therefore
// always preceded by a warn — the CycleSupervisor hook gets its
// early-degradation signal before the pager fires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "djstar/support/tsdb.hpp"

namespace djstar::support {

enum class SloAlertState : std::uint8_t { kOk = 0, kWarn = 1, kPage = 2 };

const char* to_string(SloAlertState s) noexcept;

/// Declarative objectives for one scope. Ratios are error *budgets*
/// (allowed bad fraction); a zero p99_us disables the latency objective.
struct SloSpec {
  double miss_ratio = 0.005;   ///< allowed deadline-miss fraction (paper:
                               ///< 5 in 10k ⇒ 5e-4; serving default 5e-3)
  double p99_us = 0;           ///< latency threshold; 0 = objective off
  double p99_budget = 0.01;    ///< allowed fraction slower than p99_us
  double availability = 0.999; ///< good-cycle target (budget = 1 - this)
};

/// Burn-rate window geometry, in tsdb windows (so tests can shrink the
/// clock). Zero-initialized counts mean "derive sre_defaults at enable".
struct SloWindows {
  std::size_t fast_short = 0;  ///< page pair: 5 m at 1 s windows
  std::size_t fast_long = 0;   ///< 1 h
  std::size_t slow_short = 0;  ///< warn pair: 30 m
  std::size_t slow_long = 0;   ///< 6 h
  double fast_burn = 14.4;     ///< page threshold (2% budget in 1 h)
  double slow_burn = 6.0;      ///< warn threshold (5% budget in 6 h)
  unsigned recover_evals = 2;  ///< clean evaluations per de-escalation

  /// The SRE-workbook 5m/1h/30m/6h pairs scaled to `window_us`, each
  /// clamped to at least one window.
  static SloWindows sre_defaults(double window_us) noexcept;

  bool valid() const noexcept {
    return fast_short > 0 && fast_long >= fast_short && slow_short > 0 &&
           slow_long >= slow_short && fast_burn > 0 && slow_burn > 0 &&
           recover_evals > 0;
  }
};

/// Full SLO engine configuration (engine and serve layers embed one).
struct SloConfig {
  bool enabled = false;
  SloSpec spec{};
  TsdbConfig tsdb{};
  SloWindows windows{};  ///< zeroed counts ⇒ sre_defaults(tsdb.window_us)
  /// Chrome-trace path a page-level alert dumps the flight recorder to
  /// ("" = count the incident, skip the file).
  std::string incident_dump_path;

  /// Parse the DJSTAR_SLO grammar off|on[,<miss_ratio>[,<p99_us>]]
  /// into enabled + spec (fields trimmed). Empty input or fields,
  /// unknown modes, malformed or out-of-range numbers, and trailing
  /// fields all throw std::invalid_argument: a typo'd production env
  /// must fail loudly, not silently run unobserved.
  static SloConfig parse(std::string_view text);
};

/// One objective's burn rates at the last evaluation.
struct SloBurnRates {
  double fast_short = 0;
  double fast_long = 0;
  double slow_short = 0;
  double slow_long = 0;
  bool page_firing = false;
  bool warn_firing = false;
};

struct SloStatus {
  SloAlertState state = SloAlertState::kOk;
  /// Error budget left over the slow_long window, worst objective,
  /// clamped to [0, 1] (0 = exhausted).
  double budget_remaining = 1.0;
  SloBurnRates miss;
  SloBurnRates latency;
  SloBurnRates avail;
  std::uint64_t evals = 0;
};

/// One scope's SLO: fed per cycle on the writer thread, evaluated once
/// per sealed tsdb window. Owns its four series in `store` (removed on
/// destruction, so session trackers can come and go with their sessions).
class SloTracker {
 public:
  /// Registers `<prefix>_cycles/_misses/_slow/_bad` in `store`, which
  /// must outlive the tracker. `windows` must be valid().
  SloTracker(TimeSeriesStore& store, std::string prefix, SloSpec spec,
             SloWindows windows);
  ~SloTracker();
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Hot path (writer thread): account one cycle. `missed` is the
  /// verdict of the caller's DeadlineMonitor::add; `good` is
  /// the availability bit (clean or merely-late cycles are up, faulted /
  /// cancelled / NaN / safe-mode cycles are down).
  void record_cycle(double latency_us, bool missed, bool good) noexcept;

  /// Writer thread: re-evaluate if the store sealed new windows since
  /// the last call (no-op otherwise — callers may invoke every tick).
  /// Returns true when the alert state changed.
  bool evaluate();

  const SloStatus& status() const noexcept { return status_; }
  const SloSpec& spec() const noexcept { return spec_; }
  const SloWindows& windows() const noexcept { return win_; }
  const std::string& prefix() const noexcept { return prefix_; }

  /// Append this scope's status as a JSON object (writer thread; used to
  /// build the per-tick /debug/slo cache).
  void append_json(std::string& out) const;

 private:
  double burn_rate(std::size_t over_windows,
                   TimeSeriesStore::SeriesRef bad, double budget) const;
  SloBurnRates rates_for(TimeSeriesStore::SeriesRef bad,
                         double budget) const;

  TimeSeriesStore& store_;
  std::string prefix_;
  SloSpec spec_;
  SloWindows win_;
  TimeSeriesStore::SeriesRef s_cycles_;
  TimeSeriesStore::SeriesRef s_misses_;
  TimeSeriesStore::SeriesRef s_slow_;
  TimeSeriesStore::SeriesRef s_bad_;
  SloStatus status_;
  std::uint64_t last_eval_seal_ = 0;
  unsigned clean_evals_ = 0;
};

}  // namespace djstar::support
