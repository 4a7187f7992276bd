#include "djstar/support/stats.hpp"

#include <algorithm>
#include <vector>

namespace djstar::support {

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + frac * (v[i + 1] - v[i]);
}

Summary Summary::of(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  OnlineStats acc;
  for (double x : xs) acc.add(x);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.p50 = quantile(xs, 0.50);
  s.p90 = quantile(xs, 0.90);
  s.p99 = quantile(xs, 0.99);
  s.p999 = quantile(xs, 0.999);
  return s;
}

}  // namespace djstar::support
