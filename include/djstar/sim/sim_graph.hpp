// djstar/sim/sim_graph.hpp
// Structure + node durations for scheduling simulation — the input the
// paper fed to RESCON (§IV: "we measured the average vertex computation
// time using 10k APC executions" and simulated schedules from it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "djstar/core/compiled_graph.hpp"

namespace djstar::sim {

using core::NodeId;

/// A task graph with per-node durations in microseconds. Plain data —
/// cheap to copy, durations freely replaceable between simulations.
struct SimGraph {
  std::vector<std::vector<NodeId>> successors;
  std::vector<std::vector<NodeId>> predecessors;
  std::vector<double> duration_us;
  std::vector<std::uint32_t> section;  ///< section index per node
  std::vector<NodeId> order;           ///< dependency-sorted queue

  std::size_t node_count() const noexcept { return duration_us.size(); }

  /// Snapshot the structure of a compiled graph and attach durations
  /// (one per node, in node-id order).
  static SimGraph from_compiled(const core::CompiledGraph& g,
                                std::span<const double> durations);

  /// Validate: durations non-negative, order is a permutation respecting
  /// dependencies. Asserts on violation.
  void validate() const;
};

/// Length of the longest duration-weighted path (lower bound on any
/// schedule's makespan; the paper's 295 us on infinite processors).
double critical_path_us(const SimGraph& g);

/// Sum of all node durations (the sequential execution time).
double total_work_us(const SimGraph& g);

}  // namespace djstar::sim
