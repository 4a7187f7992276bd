#include "djstar/support/flight.hpp"

#include <algorithm>

namespace djstar::support {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void FlightRecorder::configure(std::uint32_t threads,
                               std::size_t spans_per_thread) {
  const std::size_t cap = round_up_pow2(spans_per_thread < 2 ? 2
                                                             : spans_per_thread);
  lanes_.assign(threads, Lane{});
  for (Lane& lane : lanes_) {
    lane.ring.assign(cap, FlightSpan{});
    lane.next = 0;
    lane.mask = cap - 1;
  }
}

void FlightRecorder::disable() noexcept { lanes_.clear(); }

std::uint64_t FlightRecorder::recorded(std::uint32_t thread) const noexcept {
  return thread < lanes_.size() ? lanes_[thread].next : 0;
}

std::uint64_t FlightRecorder::total_recorded() const noexcept {
  std::uint64_t sum = 0;
  for (const Lane& lane : lanes_) sum += lane.next;
  return sum;
}

std::vector<TraceSpan> FlightRecorder::collect_last(std::uint64_t cycles,
                                                    double period_us) const {
  const std::uint64_t current = cycle_.load(std::memory_order_relaxed);
  const std::uint64_t window_start =
      current >= cycles ? current - cycles + 1 : 0;
  std::vector<TraceSpan> out;
  for (std::uint32_t t = 0; t < lanes_.size(); ++t) {
    const Lane& lane = lanes_[t];
    const std::uint64_t cap = lane.mask + 1;
    const std::uint64_t held = std::min<std::uint64_t>(lane.next, cap);
    for (std::uint64_t i = lane.next - held; i < lane.next; ++i) {
      const FlightSpan& fs = lane.ring[i & lane.mask];
      if (fs.cycle < window_start) continue;
      TraceSpan s = fs.span;
      const double base =
          static_cast<double>(fs.cycle - window_start) * period_us;
      s.begin_us += base;
      s.end_us += base;
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceSpan& a, const TraceSpan& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.begin_us < b.begin_us;
  });
  return out;
}

void FlightRecorder::collect_cycle(std::uint64_t cycle,
                                   std::vector<TraceSpan>& out) const {
  out.clear();
  for (std::uint32_t t = 0; t < lanes_.size(); ++t) {
    const Lane& lane = lanes_[t];
    const std::uint64_t cap = lane.mask + 1;
    const std::uint64_t held = std::min<std::uint64_t>(lane.next, cap);
    // Cycle tags are nondecreasing in write order, so the target cycle's
    // spans sit at the ring's tail when collecting the cycle that just
    // finished: scan backward and stop at the first older entry, making
    // the per-cycle attribution cost O(spans in cycle), not O(capacity).
    for (std::uint64_t i = lane.next; i > lane.next - held; --i) {
      const FlightSpan& fs = lane.ring[(i - 1) & lane.mask];
      if (fs.cycle > cycle) continue;
      if (fs.cycle < cycle) break;
      out.push_back(fs.span);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceSpan& a, const TraceSpan& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.begin_us < b.begin_us;
  });
}

bool FlightRecorder::dump_chrome_trace(const std::string& path,
                                       std::uint64_t cycles, double period_us,
                                       std::string_view process_name,
                                       std::uint32_t pid) const {
  TraceProcess p;
  p.name = std::string(process_name);
  p.pid = pid;
  p.spans = collect_last(cycles, period_us);
  const TraceProcess procs[] = {std::move(p)};
  return write_chrome_trace(path, procs);
}

}  // namespace djstar::support
