#include "djstar/core/fault.hpp"

#include "djstar/support/env.hpp"
#include "djstar/support/rng.hpp"

namespace djstar::core::chaos {
namespace {

// Independent mixing constants so (cycle, node) pairs decorrelate.
constexpr std::uint64_t kCycleMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kNodeMix = 0xbf58476d1ce4e5b9ULL;

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto v = support::env::parse_uint(s);
  if (v) out = *v;
  return v.has_value();
}

bool parse_double(std::string_view s, double& out) {
  const auto v = support::env::parse_double(s);
  if (v) out = *v;
  return v.has_value();
}

bool parse_rate(std::string_view s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v)) return false;
  out = static_cast<std::uint32_t>(v > 1000 ? 1000 : v);
  return true;
}

}  // namespace

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kLatencySpike: return "latency-spike";
    case FaultKind::kThrow: return "throw";
    case FaultKind::kNanOutput: return "nan-output";
    case FaultKind::kStall: return "stall";
    case FaultKind::kStallForever: return "stall-forever";
    case FaultKind::kWorkerAbort: return "worker-abort";
  }
  return "?";
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (const std::string_view item : support::env::split(spec)) {
    if (item.empty()) continue;

    const auto eq = item.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);

    if (key == "seed") {
      if (!parse_u64(val, plan.seed)) return std::nullopt;
    } else if (key == "latency") {
      if (!parse_rate(val, plan.latency_permille)) return std::nullopt;
    } else if (key == "throw") {
      if (!parse_rate(val, plan.throw_permille)) return std::nullopt;
    } else if (key == "nan") {
      if (!parse_rate(val, plan.nan_permille)) return std::nullopt;
    } else if (key == "stall") {
      if (!parse_rate(val, plan.stall_permille)) return std::nullopt;
    } else if (key == "stall_forever") {
      if (!parse_rate(val, plan.stall_forever_permille)) return std::nullopt;
    } else if (key == "abort") {
      if (!parse_rate(val, plan.abort_permille)) return std::nullopt;
    } else if (key == "latency_us") {
      const auto dots = val.find("..");
      if (dots == std::string_view::npos) {
        double v = 0;
        if (!parse_double(val, v) || v < 0) return std::nullopt;
        plan.latency_min_us = plan.latency_max_us = v;
      } else {
        double lo = 0, hi = 0;
        if (!parse_double(val.substr(0, dots), lo) ||
            !parse_double(val.substr(dots + 2), hi) || lo < 0 || hi < lo) {
          return std::nullopt;
        }
        plan.latency_min_us = lo;
        plan.latency_max_us = hi;
      }
    } else if (key == "stall_us") {
      double v = 0;
      if (!parse_double(val, v) || v < 0) return std::nullopt;
      plan.stall_us = v;
    } else {
      return std::nullopt;
    }
  }
  return plan;
}

FaultAction decide(const FaultPlan& plan, std::uint64_t cycle,
                   NodeId node) noexcept {
  support::SplitMix64 rng(plan.seed ^ (cycle * kCycleMix) ^
                          (std::uint64_t{node} * kNodeMix));
  const std::uint64_t draw = rng.next();
  const std::uint32_t r = static_cast<std::uint32_t>(draw % 1000);

  // Cascade the rates so one uniform draw covers all kinds; order puts
  // the rarest/most-disruptive kinds first so rounding never hides them.
  std::uint32_t edge = plan.throw_permille;
  if (r < edge) return {FaultKind::kThrow, 0.0};
  edge += plan.stall_permille;
  if (r < edge) return {FaultKind::kStall, plan.stall_us};
  edge += plan.latency_permille;
  if (r < edge) {
    const double frac =
        static_cast<double>((draw >> 32) & 0xffffff) / 16777215.0;
    return {FaultKind::kLatencySpike,
            plan.latency_min_us +
                frac * (plan.latency_max_us - plan.latency_min_us)};
  }
  edge += plan.nan_permille;
  if (r < edge) return {FaultKind::kNanOutput, 0.0};
  // Worker faults last: appending after the original kinds keeps every
  // decision of a pre-existing plan (their rates are zero) bit-identical.
  edge += plan.stall_forever_permille;
  if (r < edge) return {FaultKind::kStallForever, plan.stall_us};
  edge += plan.abort_permille;
  if (r < edge) return {FaultKind::kWorkerAbort, 0.0};
  return {};
}

}  // namespace djstar::core::chaos
