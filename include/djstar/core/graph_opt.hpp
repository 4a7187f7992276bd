// djstar/core/graph_opt.hpp
// Cost-model-driven graph compilation pipeline, run between TaskGraph and
// CompiledGraph (DESIGN.md §11).
//
// The paper's central finding is that fine-grained audio nodes make
// *scheduling overhead*, not raw compute, the speedup limiter: many DJ
// Star nodes run in well under a microsecond while every dynamic
// dispatch costs a dependency check plus a ready-queue operation
// (support/cost_table.hpp: ~1.2 us). This pass attacks that overhead at
// compile time: a legality-checked FUSION pass collapses linear chains,
// single-use fan-in clusters, and batches of independent sinks of cheap
// nodes into fused *units*. A unit is the executors' scheduling granule:
// one dependency counter, one queue entry, members executed back to back
// in topological order. Fusion never crosses the cost budget that would
// serialize the critical path, and it preserves:
//   - precedence (units are convex: no path leaves and re-enters),
//   - exactly-once semantics (each member still executes once),
//   - fault-injection identity (faults keep targeting ORIGINAL node
//     ids — CompiledGraph::execute() is still per-node),
//   - per-node observability (executors emit one kRun span per member,
//     nested inside a kFused envelope span).
// Fusion plans once, at construction, from seeded costs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "djstar/core/graph.hpp"
#include "djstar/support/cost_table.hpp"

namespace djstar::core::graph_opt {

/// Pipeline stage selection (DJSTAR_GRAPH_OPT=off|fuse).
enum class Mode {
  kOff,   ///< compile the graph as-is (one unit per node)
  kFuse,  ///< run the fusion pass
};

std::string_view to_string(Mode m) noexcept;
std::optional<Mode> parse_mode(std::string_view name) noexcept;

/// Hardened DJSTAR_GRAPH_OPT parsing: unset returns nullopt, a value
/// that is empty after trimming or not in {off, fuse}
/// throws std::invalid_argument (a misspelled mode must not silently
/// disable the optimizer).
std::optional<Mode> mode_from_env();

// ---- cost model -------------------------------------------------------------

/// Per-node execution-cost estimates in microseconds, seeded once from
/// offline measurements (bench/node_profile's per-node means, or
/// DjStarGraph::reference_durations() for the paper graph).
///
/// Thread safety: none. Mutate from the controlling thread between
/// cycles, like every other compile-time structure.
class CostModel {
 public:
  /// `n` nodes, all starting at `default_cost_us`.
  explicit CostModel(std::size_t n, double default_cost_us = 1.0);

  /// Replace every estimate. `costs.size()` must equal node_count().
  void seed(std::span<const double> costs);

  std::size_t node_count() const noexcept { return cost_.size(); }
  double cost(NodeId n) const noexcept { return cost_[n]; }
  std::span<const double> costs() const noexcept { return cost_; }

 private:
  std::vector<double> cost_;
};

// ---- fusion pass ------------------------------------------------------------

/// Fusion pass tuning.
struct FusionOptions {
  /// Dispatch overhead a dynamic executor pays per scheduled unit
  /// (dependency check + one ready-queue operation, from the calibrated
  /// cost table). Fusing k nodes into one unit saves (k-1) times this.
  double dispatch_overhead_us = support::costs::kPerNodeDispatchUs;
  /// A node is "cheap" (fusion candidate) when its estimated cost is
  /// below fuse_threshold x dispatch_overhead_us — i.e. when dispatching
  /// it costs at least 1/fuse_threshold of running it.
  double fuse_threshold = 4.0;
  /// Never grow a unit beyond this summed cost: over-fusing serializes
  /// the critical path (the flip side of He et al.'s path shaping).
  double max_unit_cost_us = 40.0;
  /// Hard cap on members per unit.
  std::uint32_t max_unit_size = 8;
  /// Allow fusing nodes from different graph sections. Off by default so
  /// work-stealing's by-section seeding keeps its locality meaning.
  bool fuse_across_sections = false;
};

/// A partition of the graph's nodes into fused units. `units[u]` lists
/// the member nodes of unit `u` in intra-unit execution order (original
/// topological order); `unit_of[n]` is the inverse map. The identity
/// plan has one singleton unit per node, in node-id order.
struct Plan {
  std::vector<std::vector<NodeId>> units;
  std::vector<std::uint32_t> unit_of;

  std::size_t unit_count() const noexcept { return units.size(); }
  std::size_t node_count() const noexcept { return unit_of.size(); }
  /// Number of multi-node units.
  std::size_t fused_unit_count() const noexcept;

  static Plan identity(std::size_t n);

  /// Full legality re-check against `g` (used by the property tests and
  /// asserted by CompiledGraph in debug builds):
  ///  - units partition [0, node_count) exactly;
  ///  - every intra-unit edge respects the member order;
  ///  - units are convex: contracting them leaves the graph acyclic
  ///    (no path leaves a unit and re-enters it).
  bool validate(const TaskGraph& g) const;
};

/// Compute a legal fusion plan for `g` under `costs`.
///
/// Three cluster shapes are fused, all provably convex in a DAG:
///  - linear chains a->b where a has out-degree 1 and b in-degree 1;
///  - fan-in clusters: a join node plus cheap predecessors whose ONLY
///    successor is the join;
///  - sink batches: independent sinks (out-degree 0) with identical
///    predecessor sets — including edge-free utility nodes, whose
///    predecessor set is empty.
/// Only cheap nodes (see FusionOptions) are fused, chains stop at the
/// cost/size budget, and with fuse_across_sections=false members must
/// share a section. The result always passes Plan::validate().
Plan plan_fusion(const TaskGraph& g, const CostModel& costs,
                 const FusionOptions& opt = {});

}  // namespace djstar::core::graph_opt
