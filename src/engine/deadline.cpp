#include "djstar/engine/deadline.hpp"

namespace djstar::engine {

DeadlineMonitor::DeadlineMonitor(double deadline_us)
    : deadline_us_(deadline_us) {
  graph_samples_.reserve(kWindow);
  total_samples_.reserve(kWindow);
}

bool DeadlineMonitor::add(const CycleBreakdown& c, unsigned level,
                          double budget_us) {
  const double total = c.total_us();
  if (total_samples_.size() < kWindow) {
    graph_samples_.push_back(c.graph_us);  // within the reservation
    total_samples_.push_back(total);
  } else {
    const std::size_t slot = cycles_ % kWindow;
    graph_samples_[slot] = c.graph_us;
    total_samples_[slot] = total;
  }
  ++cycles_;
  tp_.add(c.tp_us);
  gp_.add(c.gp_us);
  graph_.add(c.graph_us);
  vc_.add(c.vc_us);
  total_.add(total);
  const bool miss = total > budget_us;
  if (miss) ++misses_;
  if (level >= kMaxLevels) level = kMaxLevels - 1;
  ++level_cycles_[level];
  if (miss) ++level_misses_[level];
  level_total_[level].add(total);
  return miss;
}

void DeadlineMonitor::reset() {
  cycles_ = misses_ = 0;
  tp_.reset();
  gp_.reset();
  graph_.reset();
  vc_.reset();
  total_.reset();
  graph_samples_.clear();  // keeps the capacity
  total_samples_.clear();
  level_cycles_.fill(0);
  level_misses_.fill(0);
  for (auto& s : level_total_) s.reset();
}

double DeadlineMonitor::p99() const {
  return support::quantile(total_samples_, 0.99);
}

}  // namespace djstar::engine
