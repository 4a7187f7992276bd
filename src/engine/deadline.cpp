#include "djstar/engine/deadline.hpp"

#include <algorithm>

namespace djstar::engine {

bool DeadlineMonitor::add(const CycleBreakdown& c, unsigned level) {
  ++cycles_;
  tp_.add(c.tp_us);
  gp_.add(c.gp_us);
  graph_.add(c.graph_us);
  vc_.add(c.vc_us);
  const double total = c.total_us();
  total_.add(total);
  const bool miss = total > deadline_us_;
  if (miss) ++misses_;
  if (level >= kMaxLevels) level = kMaxLevels - 1;
  ++level_cycles_[level];
  if (miss) ++level_misses_[level];
  level_total_[level].add(total);
  if (keep_samples_) {
    graph_samples_.push_back(c.graph_us);
    total_samples_.push_back(total);
  }
  return miss;
}

void DeadlineMonitor::reset() {
  cycles_ = misses_ = 0;
  tp_.reset();
  gp_.reset();
  graph_.reset();
  vc_.reset();
  total_.reset();
  graph_samples_.clear();
  total_samples_.clear();
  if (keep_samples_) {
    // clear() keeps capacity, but re-reserve in case a caller shrank or
    // moved the vectors: reset() must restore the constructor's
    // allocation-free-add guarantee.
    graph_samples_.reserve(reserve_);
    total_samples_.reserve(reserve_);
  }
  level_cycles_.fill(0);
  level_misses_.fill(0);
  for (auto& s : level_total_) s.reset();
  p99_cache_ = 0.0;
  p99_cache_cycles_ = 0;
}

double DeadlineMonitor::p99() const {
  if (!keep_samples_ || total_samples_.empty()) return total_.max();
  if (cycles_ != p99_cache_cycles_) {
    // nth_element on a scratch copy: O(n) typical, no full sort.
    std::vector<double> scratch(total_samples_);
    const auto k = static_cast<std::ptrdiff_t>(
        0.99 * static_cast<double>(scratch.size() - 1) + 0.5);
    std::nth_element(scratch.begin(), scratch.begin() + k, scratch.end());
    p99_cache_ = scratch[static_cast<std::size_t>(k)];
    p99_cache_cycles_ = cycles_;
  }
  return p99_cache_;
}

}  // namespace djstar::engine
