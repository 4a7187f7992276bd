// djstar/core/executor.hpp
// Common interface and options for the scheduling strategies (paper §V).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/health.hpp"
#include "djstar/support/flight.hpp"

namespace djstar::core {

class Team;  // team.hpp (includes this header)

/// The paper's three parallelization strategies, the sequential
/// baseline, and the shared-ready-queue variant the paper sketches as
/// the improvement over thread-sleeping (§V-B, see shared_queue.hpp).
/// Each is one configuration of the worker loop (loop_executor.hpp).
enum class Strategy {
  kSequential,
  kBusyWait,
  kSleep,
  kWorkStealing,
  kSharedQueue,
};

/// Canonical short name ("sequential", "busy", "sleep", "ws", "shared").
std::string_view to_string(Strategy s) noexcept;

/// Per-run counters, aggregated over all workers since construction or the
/// last stats_reset(). Loads are relaxed: values are for reporting only.
struct ExecutorStats {
  std::atomic<std::uint64_t> nodes_executed{0};
  std::atomic<std::uint64_t> busy_wait_spins{0};  ///< dependency re-checks
  std::atomic<std::uint64_t> sleeps{0};           ///< cv waits entered
  std::atomic<std::uint64_t> wakeups{0};          ///< cv notifies to sleepers
  std::atomic<std::uint64_t> steals{0};           ///< successful thefts
  std::atomic<std::uint64_t> steal_failures{0};   ///< empty/contended probes

  /// Plain-value copy for checkpointing (the stress harness diffs two
  /// snapshots around a batch of cycles and checks executor invariants:
  /// nodes_executed advances by cycles * node_count, steals never exceed
  /// executed nodes, ...). Only exact while no cycle is in flight.
  struct Snapshot {
    std::uint64_t nodes_executed = 0;
    std::uint64_t busy_wait_spins = 0;
    std::uint64_t sleeps = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_failures = 0;
  };

  Snapshot snapshot() const noexcept {
    return {nodes_executed.load(std::memory_order_relaxed),
            busy_wait_spins.load(std::memory_order_relaxed),
            sleeps.load(std::memory_order_relaxed),
            wakeups.load(std::memory_order_relaxed),
            steals.load(std::memory_order_relaxed),
            steal_failures.load(std::memory_order_relaxed)};
  }

  void reset() noexcept {
    nodes_executed = 0;
    busy_wait_spins = 0;
    sleeps = 0;
    wakeups = 0;
    steals = 0;
    steal_failures = 0;
  }
};

/// Executor construction options.
struct ExecOptions {
  /// Worker count, including the calling thread (thread 0). The paper
  /// fixes this to 4 ("increasing the thread count above four does not
  /// accelerate the computations any further", §VI).
  unsigned threads = 4;
  /// Optional span ring, the one span sink (configure it with `threads`
  /// lanes): while it is enabled, every worker writes each of its run and
  /// wait spans there, once (Fig.-11 realizations, attribution, incident
  /// dumps). May be nullptr.
  support::FlightRecorder* flight = nullptr;
  /// Worker self-healing (DESIGN.md §12). With mode != kOff the parallel
  /// executors build their Team with a medic, which quarantines a joined
  /// worker that stops beating; the worker loop then adopts the ready
  /// nodes it left behind.
  TeamHealConfig heal{};
};

/// How the work-stealing configuration distributes source nodes at
/// cycle start.
enum class SeedMode {
  kBySection,   ///< paper default: same section -> same thread
  kRoundRobin,  ///< ablation: ignore sections
};

/// Work-stealing specific options.
struct WorkStealingOptions {
  SeedMode seed = SeedMode::kBySection;
};

/// A scheduling strategy bound to one compiled graph. run_cycle()
/// executes every node exactly once, respecting all dependencies, and
/// returns when the full graph has completed. Workers persist across
/// cycles (created once in the constructor — CP.41).
///
/// Thread safety: run_cycle() must be called from one thread at a time
/// (the audio callback). The destructor joins all workers.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Execute one audio processing cycle of the bound graph. A team's
  /// parked helpers wake at this dispatch and join while the cycle is
  /// open; the caller, worker 0, starts at once.
  virtual void run_cycle() = 0;

  /// Strategy name: "sequential", "busy", "sleep", "ws" or "shared"
  /// (to_string() of the configuration's Strategy).
  virtual std::string_view name() const noexcept = 0;

  /// Worker count (including the calling thread).
  virtual unsigned threads() const noexcept = 0;

  const ExecutorStats& stats() const noexcept { return stats_; }
  void stats_reset() noexcept { stats_.reset(); }

  /// The worker team this executor runs on (owned or shared), or nullptr
  /// for teamless strategies (sequential). The engine reads healing
  /// counters through this.
  virtual const Team* team() const noexcept { return nullptr; }

 protected:
  ExecutorStats stats_;
};

}  // namespace djstar::core
