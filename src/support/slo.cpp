#include "djstar/support/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "djstar/support/env.hpp"

namespace djstar::support {

namespace {

/// Strict positive-double parse: the whole field must be consumed and
/// the value must land in (0, `max`]. Throws otherwise.
double parse_positive(std::string_view field, const char* what,
                      double max_value) {
  const auto v = env::parse_double(field);
  if (!v) {
    throw std::invalid_argument(std::string("DJSTAR_SLO: malformed ") +
                                what + " '" + std::string(field) + "'");
  }
  if (!(*v > 0) || *v > max_value) {
    throw std::invalid_argument(std::string("DJSTAR_SLO: ") + what +
                                " out of range (0, " +
                                std::to_string(max_value) + "]: '" +
                                std::string(field) + "'");
  }
  return *v;
}

std::size_t windows_for(double seconds, double window_us) noexcept {
  const double w = seconds * 1e6 / window_us;
  return w < 1.0 ? 1 : static_cast<std::size_t>(w);
}

void append_rates_json(std::string& out, const char* key,
                       const SloBurnRates& r, double budget,
                       bool enabled) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "\"%s\":{\"enabled\":%s,\"budget\":%.6f,\"fast_short\":%.3f,"
      "\"fast_long\":%.3f,\"slow_short\":%.3f,\"slow_long\":%.3f,"
      "\"page_firing\":%s,\"warn_firing\":%s}",
      key, enabled ? "true" : "false", budget, r.fast_short, r.fast_long,
      r.slow_short, r.slow_long, r.page_firing ? "true" : "false",
      r.warn_firing ? "true" : "false");
  out += buf;
}

}  // namespace

const char* to_string(SloAlertState s) noexcept {
  switch (s) {
    case SloAlertState::kOk:
      return "ok";
    case SloAlertState::kWarn:
      return "warn";
    case SloAlertState::kPage:
      return "page";
  }
  return "?";
}

SloWindows SloWindows::sre_defaults(double window_us) noexcept {
  SloWindows w;
  w.fast_short = windows_for(5.0 * 60, window_us);        // 5 m
  w.fast_long = windows_for(60.0 * 60, window_us);        // 1 h
  w.slow_short = windows_for(30.0 * 60, window_us);       // 30 m
  w.slow_long = windows_for(6.0 * 60 * 60, window_us);    // 6 h
  return w;
}

SloConfig SloConfig::parse(std::string_view text) {
  const std::string_view value = env::trim(text);
  // At most 3 trimmed fields; empty fields throw.
  std::vector<std::string_view> fields = env::split(value);
  if (fields.size() > 3) {
    throw std::invalid_argument(
        "DJSTAR_SLO: too many fields (expected "
        "off or on[,<miss_ratio>[,<p99_us>]])");
  }
  for (std::string_view& field : fields) {
    field = env::trim(field);
    if (field.empty()) {
      throw std::invalid_argument("DJSTAR_SLO: empty field in '" +
                                  std::string(value) + "'");
    }
  }
  const std::size_t nfields = fields.size();

  SloConfig cfg;
  if (fields[0] == "off") {
    if (nfields > 1) {
      throw std::invalid_argument(
          "DJSTAR_SLO: 'off' takes no further fields");
    }
    cfg.enabled = false;
    return cfg;
  }
  if (fields[0] != "on") {
    throw std::invalid_argument("DJSTAR_SLO: unknown mode '" +
                                std::string(fields[0]) +
                                "' (expected off or on)");
  }
  cfg.enabled = true;
  if (nfields >= 2) {
    // A miss budget of 1.0 would never alert; require a real ratio.
    const double r = parse_positive(fields[1], "miss_ratio", 1.0);
    if (r >= 1.0) {
      throw std::invalid_argument(
          "DJSTAR_SLO: miss_ratio must be in (0, 1): '" +
          std::string(fields[1]) + "'");
    }
    cfg.spec.miss_ratio = r;
  }
  if (nfields >= 3) {
    cfg.spec.p99_us = parse_positive(fields[2], "p99_us", 1e9);
  }
  return cfg;
}

SloTracker::SloTracker(TimeSeriesStore& store, std::string prefix,
                       SloSpec spec, SloWindows windows)
    : store_(store),
      prefix_(std::move(prefix)),
      spec_(spec),
      win_(windows) {
  if (!win_.valid()) {
    throw std::invalid_argument("slo: invalid window geometry for '" +
                                prefix_ + "'");
  }
  s_cycles_ = store_.add_series(prefix_ + "_cycles");
  s_misses_ = store_.add_series(prefix_ + "_misses");
  s_slow_ = store_.add_series(prefix_ + "_slow");
  s_bad_ = store_.add_series(prefix_ + "_bad");
}

SloTracker::~SloTracker() {
  store_.remove_series(prefix_ + "_cycles");
  store_.remove_series(prefix_ + "_misses");
  store_.remove_series(prefix_ + "_slow");
  store_.remove_series(prefix_ + "_bad");
}

void SloTracker::record_cycle(double latency_us, bool missed,
                              bool good) noexcept {
  store_.record(s_cycles_, latency_us);
  if (missed) store_.record(s_misses_, latency_us);
  if (spec_.p99_us > 0 && latency_us > spec_.p99_us) {
    store_.record(s_slow_, latency_us);
  }
  if (!good) store_.record(s_bad_, 1.0);
}

double SloTracker::burn_rate(std::size_t over_windows,
                             TimeSeriesStore::SeriesRef bad,
                             double budget) const {
  const TsWindow total = store_.aggregate(s_cycles_, over_windows);
  if (total.count == 0) return 0;
  const TsWindow errs = store_.aggregate(bad, over_windows);
  const double ratio = static_cast<double>(errs.count) /
                       static_cast<double>(total.count);
  return budget > 0 ? ratio / budget : 0;
}

SloBurnRates SloTracker::rates_for(TimeSeriesStore::SeriesRef bad,
                                   double budget) const {
  SloBurnRates r;
  r.fast_short = burn_rate(win_.fast_short, bad, budget);
  r.fast_long = burn_rate(win_.fast_long, bad, budget);
  r.slow_short = burn_rate(win_.slow_short, bad, budget);
  r.slow_long = burn_rate(win_.slow_long, bad, budget);
  r.page_firing =
      r.fast_short >= win_.fast_burn && r.fast_long >= win_.fast_burn;
  r.warn_firing =
      r.page_firing ||
      (r.slow_short >= win_.slow_burn && r.slow_long >= win_.slow_burn);
  return r;
}

bool SloTracker::evaluate() {
  const std::uint64_t sealed = store_.sealed_windows();
  if (sealed == last_eval_seal_) return false;
  last_eval_seal_ = sealed;

  status_.miss = rates_for(s_misses_, spec_.miss_ratio);
  status_.latency = spec_.p99_us > 0 ? rates_for(s_slow_, spec_.p99_budget)
                                     : SloBurnRates{};
  status_.avail = rates_for(s_bad_, 1.0 - spec_.availability);

  const bool page = status_.miss.page_firing ||
                    status_.latency.page_firing ||
                    status_.avail.page_firing;
  const bool warn = page || status_.miss.warn_firing ||
                    status_.latency.warn_firing ||
                    status_.avail.warn_firing;

  double remaining = 1.0 - status_.miss.slow_long;
  if (spec_.p99_us > 0) {
    remaining = std::min(remaining, 1.0 - status_.latency.slow_long);
  }
  remaining = std::min(remaining, 1.0 - status_.avail.slow_long);
  status_.budget_remaining = std::clamp(remaining, 0.0, 1.0);

  // Stepwise escalation with hysteresis: one level up per firing
  // evaluation (ok → warn → page, so a page is always preceded by a
  // warn), one level down per `recover_evals` consecutive clean ones.
  SloAlertState next = status_.state;
  if (warn) {
    clean_evals_ = 0;
    if (page && status_.state == SloAlertState::kWarn) {
      next = SloAlertState::kPage;
    } else if (status_.state == SloAlertState::kOk) {
      next = SloAlertState::kWarn;
    }
  } else if (status_.state != SloAlertState::kOk) {
    if (++clean_evals_ >= win_.recover_evals) {
      clean_evals_ = 0;
      next = status_.state == SloAlertState::kPage ? SloAlertState::kWarn
                                                   : SloAlertState::kOk;
    }
  } else {
    clean_evals_ = 0;
  }
  ++status_.evals;
  const bool changed = next != status_.state;
  status_.state = next;
  return changed;
}

void SloTracker::append_json(std::string& out) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"state\":\"%s\",\"budget_remaining\":%.4f,\"evals\":%llu,"
                "\"objectives\":{",
                to_string(status_.state), status_.budget_remaining,
                static_cast<unsigned long long>(status_.evals));
  out += buf;
  append_rates_json(out, "miss", status_.miss, spec_.miss_ratio, true);
  out += ',';
  append_rates_json(out, "latency", status_.latency, spec_.p99_budget,
                    spec_.p99_us > 0);
  out += ',';
  append_rates_json(out, "availability", status_.avail,
                    1.0 - spec_.availability, true);
  out += "}}";
}

}  // namespace djstar::support
