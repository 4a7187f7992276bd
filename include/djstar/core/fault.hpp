// djstar/core/fault.hpp
// Node-level fault injection — the second half of the chaos harness.
//
// core/chaos perturbs *scheduling* (where threads pause inside the
// executors' race windows); this header perturbs the *nodes themselves*:
// a FaultPlan armed on a CompiledGraph makes individual node executions
// run slow (latency spike), throw, stall as if the worker were stuck on
// a page fault or priority inversion, or emit NaN audio. The engine's
// CycleSupervisor (engine/supervisor.hpp) is the consumer: it must keep
// every cycle deadline-bounded and every output buffer valid no matter
// which of these faults fire.
//
// Determinism: whether a fault fires for node `n` in cycle `c` is a pure
// function of (plan.seed, c, n) — independent of thread interleaving —
// so a fault schedule is exactly replayable and supervisor transition
// logs can be compared across runs (tested). Latency/stall *durations*
// are equally deterministic; only their wall-clock consequences depend
// on the machine.
//
// Off by default: an unarmed graph pays one branch per node execution.
// Arm programmatically via CompiledGraph::arm_faults(), or for any
// engine via the DJSTAR_FAULTS environment variable (AudioEngine parses
// it with FaultPlan::parse; see README "Fault injection").
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "djstar/core/graph.hpp"

namespace djstar::core::chaos {

/// What a fault injection does to one node execution.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kLatencySpike,  ///< node runs, then busy-spins extra microseconds
  kThrow,         ///< node throws InjectedFault instead of running
  kNanOutput,     ///< node runs, then the graph's poison hook corrupts audio
  kStall,         ///< node runs, then the worker sleeps (stuck worker)
  // Worker faults (DESIGN.md §12): these target the *thread* that picked
  // the node up, not the node. With a healing team (HealMode != kOff,
  // parallel strategy) they fire before the node runs — the worker
  // wedges with no heartbeat / dies, the medic quarantines it, and a
  // survivor adopts the node. Without a medic CompiledGraph::execute()
  // degrades them so no configuration can hang: kStallForever becomes a
  // bounded kStall of stall_us, kWorkerAbort a no-op (the node still
  // runs; there is no thread-level recovery to exercise).
  kStallForever,  ///< worker wedges until quarantined (bounded stall unhealed)
  kWorkerAbort,   ///< worker thread dies mid-cycle (no-op unhealed)
};

const char* to_string(FaultKind k) noexcept;

/// The resolved decision for one (cycle, node) pair.
struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  double duration_us = 0.0;  ///< spike/stall length (kLatencySpike, kStall)
};

/// Seeded description of which faults to inject and how often. Rates are
/// per node execution, in 1/1000 (a 67-node graph at throw=1 therefore
/// sees roughly one injected exception every ~15 cycles).
struct FaultPlan {
  std::uint64_t seed = 1;

  std::uint32_t latency_permille = 0;  ///< rate of latency spikes
  std::uint32_t throw_permille = 0;    ///< rate of thrown exceptions
  std::uint32_t nan_permille = 0;      ///< rate of NaN output poisoning
  std::uint32_t stall_permille = 0;    ///< rate of stuck-worker stalls
  std::uint32_t stall_forever_permille = 0;  ///< rate of wedged workers
  std::uint32_t abort_permille = 0;          ///< rate of dying workers

  double latency_min_us = 50.0;   ///< spike duration drawn uniformly
  double latency_max_us = 400.0;  ///< from [min, max]
  double stall_us = 3000.0;       ///< stall length (default > one deadline)

  /// Restrict injection to these nodes; empty = every node is eligible.
  std::vector<NodeId> targets;

  /// True when any rate is non-zero.
  bool any() const noexcept {
    return latency_permille + throw_permille + nan_permille + stall_permille +
               stall_forever_permille + abort_permille >
           0;
  }

  /// True when a worker-fault rate is non-zero (gates the heal paths'
  /// pre-execution check in CompiledGraph::take_worker_fault).
  bool any_worker() const noexcept {
    return stall_forever_permille + abort_permille > 0;
  }

  /// Parse a comma-separated "key=value" spec, e.g.
  ///   "seed=42,throw=5,latency=20,latency_us=100..600,stall=1,stall_us=4000"
  /// Keys: seed, latency, throw, nan, stall, stall_forever, abort (rates
  /// in permille), latency_us (single value or "lo..hi"), stall_us.
  /// Unknown keys or malformed values yield nullopt. Rates are clamped
  /// to 1000.
  static std::optional<FaultPlan> parse(std::string_view spec);
};

/// Decide the fault for node `node` in cycle `cycle` under `plan`.
/// Pure function of (plan, cycle, node); does not check plan.targets
/// (CompiledGraph pre-resolves eligibility).
FaultAction decide(const FaultPlan& plan, std::uint64_t cycle,
                   NodeId node) noexcept;

/// The exception injected by FaultKind::kThrow. Executors never see it:
/// CompiledGraph::execute() catches it (like any other node exception),
/// records the fault, and fails the cycle.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(NodeId node)
      : std::runtime_error("injected fault at node " + std::to_string(node)),
        node_(node) {}
  NodeId node() const noexcept { return node_; }

 private:
  NodeId node_;
};

}  // namespace djstar::core::chaos
