#include "djstar/core/chaos.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "djstar/core/detail/spin.hpp"
#include "djstar/support/rng.hpp"

namespace djstar::core::chaos {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_seed{0};
std::atomic<std::uint32_t> g_intensity[kSiteCount]{};
// Bumped on every enable() so existing threads reseed their streams.
std::atomic<std::uint32_t> g_epoch{0};
std::atomic<std::uint64_t> g_perturbations{0};
std::atomic<std::uint64_t> g_site_hits[kSiteCount]{};

// Stable per-thread index: assigned once, on the thread's first visit.
std::atomic<std::uint32_t> g_next_thread_index{0};

std::uint32_t thread_index() noexcept {
  thread_local const std::uint32_t index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

struct ThreadStream {
  std::uint32_t epoch = ~0u;
  support::Xoshiro256 rng{0};
};

support::Xoshiro256& stream() noexcept {
  thread_local ThreadStream ts;
  const std::uint32_t epoch = g_epoch.load(std::memory_order_acquire);
  if (ts.epoch != epoch) {
    ts.epoch = epoch;
    // Distinct, reproducible stream per (seed, thread index).
    ts.rng = support::Xoshiro256(g_seed.load(std::memory_order_acquire) +
                                 0x9e3779b97f4a7c15ULL *
                                     (1 + std::uint64_t{thread_index()}));
  }
  return ts.rng;
}

}  // namespace

const char* to_string(Site s) noexcept {
  switch (s) {
    case Site::kDependencyCheck: return "dependency-check";
    case Site::kBeforeWait: return "before-wait";
    case Site::kBeforeNotify: return "before-notify";
    case Site::kDequePush: return "deque-push";
    case Site::kDequePop: return "deque-pop";
    case Site::kDequeSteal: return "deque-steal";
    case Site::kNodeReady: return "node-ready";
    case Site::kCycleStart: return "cycle-start";
  }
  return "?";
}

void enable(std::uint64_t seed, std::uint32_t intensity_permille) {
  g_seed.store(seed, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    set_intensity(static_cast<Site>(i), intensity_permille);
  }
  reset_counters();
  g_epoch.fetch_add(1, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
}

void set_intensity(Site s, std::uint32_t intensity_permille) noexcept {
  g_intensity[static_cast<std::size_t>(s)].store(
      intensity_permille > 1000 ? 1000 : intensity_permille,
      std::memory_order_relaxed);
}

void disable() noexcept { g_enabled.store(false, std::memory_order_release); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t perturbations() noexcept {
  return g_perturbations.load(std::memory_order_relaxed);
}

std::uint64_t site_hits(Site s) noexcept {
  return g_site_hits[static_cast<std::size_t>(s)].load(
      std::memory_order_relaxed);
}

void reset_counters() noexcept {
  g_perturbations.store(0, std::memory_order_relaxed);
  for (auto& h : g_site_hits) h.store(0, std::memory_order_relaxed);
}

void maybe_perturb(Site s) noexcept {
  if (!g_enabled.load(std::memory_order_relaxed)) return;

  g_site_hits[static_cast<std::size_t>(s)].fetch_add(
      1, std::memory_order_relaxed);

  const std::uint64_t draw = stream().next();
  if (draw % 1000 >= g_intensity[static_cast<std::size_t>(s)].load(
                         std::memory_order_relaxed)) {
    return;
  }
  g_perturbations.fetch_add(1, std::memory_order_relaxed);

  // Mix of delay magnitudes: most are sub-microsecond (pause bursts,
  // yields) to reorder instructions within a race window; a tail of
  // microsecond sleeps forces full OS-scheduler swaps, which is what
  // actually exposes lost wakeups on an oversubscribed machine.
  const std::uint64_t kind = (draw >> 32) & 7;
  if (kind < 3) {
    const std::uint32_t pauses = 1 + ((draw >> 40) & 63);
    for (std::uint32_t i = 0; i < pauses; ++i) detail::cpu_pause();
  } else if (kind < 6) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(
        std::chrono::microseconds(1 + ((draw >> 40) & 31)));
  }
}

}  // namespace djstar::core::chaos
