// djstar/core/chaos.hpp
// Schedule-fuzzing hook for the concurrency-correctness harness.
//
// The executors' synchronization protocols (busy-wait dependency
// counters, the sleep strategy's waiter registration, the Chase-Lev
// deque's owner/thief races) only fail in narrow interleaving windows
// that quiet wall-clock timing almost never hits. The stress suite
// widens those windows deliberately: executors and the deque call
// maybe_perturb() at every synchronization-sensitive point, and when
// chaos is enabled the calling thread is randomly delayed there
// (hardware pauses, yields, or a microsecond-scale sleep).
//
// Off by default: maybe_perturb() is a single relaxed atomic load and a
// predicted-not-taken branch, so the hooks stay compiled into release
// builds with negligible cost. Tests enable chaos via ScopedChaos.
//
// Determinism: every thread draws from its own Xoshiro256 stream,
// seeded from (global seed, per-thread index). Thread indices are
// assigned on first use and stable for the life of the thread, so a
// given (seed, thread index) always produces the same decision
// sequence. re-enable() reseeds all streams (epoch bump).
//
// Thread safety: enable()/disable()/reset_counters() must not race with
// an executing cycle (call them from the controlling thread between
// runs, like FlightRecorder::configure). maybe_perturb() is safe from any
// thread at any time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace djstar::core::chaos {

/// Synchronization-sensitive program points that can be perturbed.
enum class Site : std::uint8_t {
  kDependencyCheck,  ///< executor about to test a node's pending counter
  kBeforeWait,       ///< between waiter registration / epoch read and the
                     ///< blocking wait (the classic lost-wakeup window)
  kBeforeNotify,     ///< between resolving the last dependency and the wake
  kDequePush,        ///< Chase-Lev push, between index reads and publish
  kDequePop,         ///< Chase-Lev pop, inside the owner/thief race window
  kDequeSteal,       ///< Chase-Lev steal, between top read and the CAS
  kNodeReady,        ///< work-stealing: node pushed, idle wake pending
  kCycleStart,       ///< worker observed the new cycle, body not begun
};
inline constexpr std::size_t kSiteCount = 8;

const char* to_string(Site s) noexcept;

/// Arm the hook. `intensity_permille` is the probability (in 1/1000) that
/// a visited site injects a delay; the rest of the draw picks the delay
/// kind (pause burst / yield / micro-sleep). Reseeds every thread stream.
void enable(std::uint64_t seed, std::uint32_t intensity_permille = 200);

/// Override one site's intensity until the next enable(), which gives
/// every site the intensity it is passed. Call like enable(), between
/// runs.
void set_intensity(Site s, std::uint32_t intensity_permille) noexcept;

/// Disarm the hook; maybe_perturb() returns to its one-load fast path.
void disable() noexcept;

bool enabled() noexcept;

/// Perturbation point; no-op (one relaxed load) when disabled.
void maybe_perturb(Site s) noexcept;

/// Total delays injected since the last enable()/reset_counters().
std::uint64_t perturbations() noexcept;

/// Times `s` was visited while enabled (hit != necessarily delayed).
/// Lets tests prove the hooks are actually wired into a code path.
std::uint64_t site_hits(Site s) noexcept;

void reset_counters() noexcept;

/// RAII arming for tests: enables in the constructor, restores the
/// disabled state (and clears counters) in the destructor.
class ScopedChaos {
 public:
  explicit ScopedChaos(std::uint64_t seed,
                       std::uint32_t intensity_permille = 200) {
    enable(seed, intensity_permille);
  }
  ~ScopedChaos() {
    disable();
    reset_counters();
  }
  ScopedChaos(const ScopedChaos&) = delete;
  ScopedChaos& operator=(const ScopedChaos&) = delete;
};

}  // namespace djstar::core::chaos
