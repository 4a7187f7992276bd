// djstar/core/executor.hpp
// Common interface and options for the scheduling strategies (paper §V).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/health.hpp"
#include "djstar/support/flight.hpp"
#include "djstar/support/trace.hpp"

namespace djstar::core {

class Team;  // team.hpp (includes this header)

/// How a thread waits for an unmet dependency or an empty queue.
struct SpinPolicy {
  /// Hardware pauses between re-checks before escalating to yield.
  std::uint32_t pause_iterations = 64;
  /// After this many yields, sleep 1 us (defensive against priority
  /// inversion on oversubscribed machines; effectively never reached on
  /// the paper's setup).
  std::uint32_t yields_before_sleep = 4096;
};

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
  SpinPolicy spin{};
  /// Optional schedule tracing (arm the recorder with `threads` lanes to
  /// capture Fig.-11-style realizations). May be nullptr.
  support::TraceRecorder* trace = nullptr;
  /// Optional always-on flight recorder (configure with `threads` lanes).
  /// Unlike `trace` it overwrites instead of filling up, so it can stay
  /// enabled for the life of the engine. May be nullptr.
  support::FlightRecorder* flight = nullptr;
  /// Optional cached static schedule (graph_opt::build_static_plan) over
  /// the bound graph's units. When non-null, valid() and built for the
  /// same thread count, the parallel executors replay it instead of
  /// scheduling dynamically; the decision is re-made at every cycle
  /// start, so invalidating the plan between cycles falls back to the
  /// dynamic path on the next cycle. Must outlive the executor. The
  /// sequential strategy ignores it. May be nullptr.
  const graph_opt::StaticPlan* static_plan = nullptr;
  /// Worker self-healing (DESIGN.md §12). With mode != kOff the parallel
  /// executors build their Team with a medic, run every unit through the
  /// claim-gated heal path, and install a rescue hook that republishes a
  /// quarantined worker's units. Forces dynamic scheduling: a cached
  /// static plan assumes a fixed healthy team, so plan replay is skipped
  /// while healing is armed (detail::plan_active).
  TeamHealConfig heal{};
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

  /// Execute one audio processing cycle of the bound graph.
  virtual void run_cycle() = 0;

  /// Strategy name ("sequential", "busy", "sleep", "ws").
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
