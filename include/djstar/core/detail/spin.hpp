// djstar/core/detail/spin.hpp
// CPU pause primitive and the escalating spin-wait loop shared by the
// worker loop's bounded waits and the team's close of a cycle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace djstar::core::detail {

/// Hardware pauses between re-checks before a waiter escalates to yield.
inline constexpr std::uint64_t kPauseIterations = 64;
/// Yields before a waiter escalates to 1 us sleeps. At ~0.34 us per
/// yield (4-vCPU Xeon VM) the pause+yield budget is ~1.4 ms, so only an
/// oversubscribed team's waits inside a cycle reach the sleep tier.
inline constexpr std::uint64_t kYieldsBeforeSleep = 4096;

/// One architectural pause/yield hint inside a spin loop.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Escalating waiter: kPauseIterations hardware pauses, then
/// std::this_thread::yield(), then a 1 us sleep after kYieldsBeforeSleep
/// yields. Reset after the awaited condition holds.
class SpinWaiter {
 public:
  /// One wait step: a pause, a yield, or a 1 us sleep once the
  /// pause+yield budget is spent. Call in a loop around the condition
  /// re-check.
  void step() noexcept {
    if (count_ < kPauseIterations) {
      cpu_pause();
    } else if (count_ < kPauseIterations + kYieldsBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(1));
    }
    ++count_;
  }

  /// Steps performed so far (for stats).
  std::uint64_t spins() const noexcept { return count_; }
  void reset() noexcept { count_ = 0; }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace djstar::core::detail
