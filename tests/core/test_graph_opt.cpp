// Unit + property tests for the graph-opt compilation pipeline
// (DESIGN.md §11): mode parsing, the EWMA cost model, fusion-plan
// legality (Plan::validate as executable specification), the fused-unit
// structure CompiledGraph derives from a plan, and the cached static
// schedule. The differential end-to-end checks live in
// test_graph_opt_conformance.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/random_dag.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/graph_opt.hpp"

namespace dc = djstar::core;
namespace go = djstar::core::graph_opt;

namespace {

/// A chain 0 -> 1 -> ... -> n-1, every node in `section`.
dc::TaskGraph make_chain(std::size_t n, const char* section = "master") {
  dc::TaskGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_node("c" + std::to_string(i), [] {}, section);
  }
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(static_cast<dc::NodeId>(i - 1), static_cast<dc::NodeId>(i));
  }
  return g;
}

/// `fan` parallel sources all feeding one join node (fan-in cluster).
dc::TaskGraph make_fan_in(std::size_t fan, const char* section = "master") {
  dc::TaskGraph g;
  for (std::size_t i = 0; i < fan; ++i) {
    g.add_node("p" + std::to_string(i), [] {}, section);
  }
  g.add_node("join", [] {}, section);
  for (std::size_t i = 0; i < fan; ++i) {
    g.add_edge(static_cast<dc::NodeId>(i), static_cast<dc::NodeId>(fan));
  }
  return g;
}

/// Fusion options with deterministic, test-friendly knobs: dispatch
/// overhead 1 us, cheap threshold 4 us.
go::FusionOptions test_opts() {
  go::FusionOptions opt;
  opt.dispatch_overhead_us = 1.0;
  opt.fuse_threshold = 4.0;
  return opt;
}

}  // namespace

// ---- mode parsing -----------------------------------------------------------

TEST(GraphOptMode, RoundTripsThroughToString) {
  for (auto m : {go::Mode::kOff, go::Mode::kFuse}) {
    const auto parsed = go::parse_mode(go::to_string(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
}

TEST(GraphOptMode, ParseAcceptsAliasAndRejectsUnknown) {
  EXPECT_FALSE(go::parse_mode("fuse-static").has_value());
  EXPECT_FALSE(go::parse_mode("fuse+static").has_value());
  EXPECT_FALSE(go::parse_mode("fused").has_value());
  EXPECT_FALSE(go::parse_mode("").has_value());
  EXPECT_FALSE(go::parse_mode("OFF ").has_value());
}

TEST(GraphOptMode, EnvUnsetIsNullopt) {
  ::unsetenv("DJSTAR_GRAPH_OPT");
  EXPECT_FALSE(go::mode_from_env().has_value());
}

TEST(GraphOptMode, EnvParsesAndTrimsWhitespace) {
  ::setenv("DJSTAR_GRAPH_OPT", "  fuse ", 1);
  EXPECT_EQ(go::mode_from_env(), go::Mode::kFuse);
  ::setenv("DJSTAR_GRAPH_OPT", "off", 1);
  EXPECT_EQ(go::mode_from_env(), go::Mode::kOff);
  ::unsetenv("DJSTAR_GRAPH_OPT");
}

TEST(GraphOptMode, EnvGarbageThrowsInsteadOfSilentlyDisabling) {
  ::setenv("DJSTAR_GRAPH_OPT", "fastest", 1);
  EXPECT_THROW(go::mode_from_env(), std::invalid_argument);
  ::setenv("DJSTAR_GRAPH_OPT", "   ", 1);
  EXPECT_THROW(go::mode_from_env(), std::invalid_argument);
  ::unsetenv("DJSTAR_GRAPH_OPT");
}

// ---- cost model -------------------------------------------------------------

TEST(CostModel, SeedReplacesEstimates) {
  go::CostModel m(3, 2.0);
  EXPECT_DOUBLE_EQ(m.cost(1), 2.0);
  const std::vector<double> seeded = {1.0, 2.0, 3.0};
  m.seed(seeded);
  EXPECT_DOUBLE_EQ(m.cost(0), 1.0);
  EXPECT_DOUBLE_EQ(m.cost(2), 3.0);
}

// ---- plan legality ----------------------------------------------------------

TEST(FusionPlan, IdentityValidatesOnRandomDags) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    djstar::test::RandomDag dag(40, 0.08, seed);
    const auto plan = go::Plan::identity(dag.g.node_count());
    EXPECT_EQ(plan.unit_count(), dag.g.node_count());
    EXPECT_EQ(plan.fused_unit_count(), 0u);
    EXPECT_TRUE(plan.validate(dag.g));
  }
}

TEST(FusionPlan, ValidateRejectsNonPartition) {
  const auto g = make_chain(3);
  go::Plan twice;  // node 1 appears in two units
  twice.units = {{0, 1}, {1, 2}};
  twice.unit_of = {0, 0, 1};
  EXPECT_FALSE(twice.validate(g));

  go::Plan missing;  // node 2 never appears
  missing.units = {{0, 1}};
  missing.unit_of = {0, 0, 0};
  EXPECT_FALSE(missing.validate(g));

  go::Plan wrong_inverse;  // unit_of disagrees with units
  wrong_inverse.units = {{0, 1}, {2}};
  wrong_inverse.unit_of = {0, 1, 1};
  EXPECT_FALSE(wrong_inverse.validate(g));
}

TEST(FusionPlan, ValidateRejectsIntraUnitOrderViolation) {
  const auto g = make_chain(2);
  go::Plan p;
  p.units = {{1, 0}};  // successor listed before its predecessor
  p.unit_of = {0, 0};
  EXPECT_FALSE(p.validate(g));
}

TEST(FusionPlan, ValidateRejectsNonConvexCluster) {
  // a -> b -> c with a -> c: fusing {a, c} leaves a path that exits the
  // unit (to b) and re-enters it — the contracted graph has a cycle.
  dc::TaskGraph g;
  g.add_node("a", [] {}, "master");
  g.add_node("b", [] {}, "master");
  g.add_node("c", [] {}, "master");
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  go::Plan p;
  p.units = {{0, 2}, {1}};
  p.unit_of = {0, 1, 0};
  EXPECT_FALSE(p.validate(g));
}

// ---- fusion pass ------------------------------------------------------------

TEST(FusionPass, CollapsesACheapChain) {
  const auto g = make_chain(5);
  const go::CostModel costs(5, 0.5);  // all well under the cheap threshold
  const auto plan = go::plan_fusion(g, costs, test_opts());
  EXPECT_TRUE(plan.validate(g));
  EXPECT_EQ(plan.unit_count(), 1u);
  EXPECT_EQ(plan.fused_unit_count(), 1u);
  EXPECT_EQ(plan.units[0].size(), 5u);
  // Members in topological (= chain) order.
  EXPECT_TRUE(std::is_sorted(plan.units[0].begin(), plan.units[0].end()));
}

TEST(FusionPass, RespectsMaxUnitSize) {
  const auto g = make_chain(20);
  const go::CostModel costs(20, 0.1);
  auto opt = test_opts();
  opt.max_unit_size = 4;
  const auto plan = go::plan_fusion(g, costs, opt);
  EXPECT_TRUE(plan.validate(g));
  for (const auto& unit : plan.units) EXPECT_LE(unit.size(), 4u);
  EXPECT_GE(plan.fused_unit_count(), 1u);
}

TEST(FusionPass, RespectsUnitCostBudget) {
  const auto g = make_chain(20);
  const go::CostModel costs(20, 3.0);  // cheap (< 4 us) but adds up fast
  auto opt = test_opts();
  opt.max_unit_cost_us = 9.0;  // at most 3 members per unit
  const auto plan = go::plan_fusion(g, costs, opt);
  EXPECT_TRUE(plan.validate(g));
  for (const auto& unit : plan.units) EXPECT_LE(unit.size(), 3u);
}

TEST(FusionPass, ExpensiveNodesStaySingletons) {
  const auto g = make_chain(6);
  go::CostModel costs(6, 0.5);
  std::vector<double> c = {0.5, 0.5, 50.0, 0.5, 0.5, 0.5};
  costs.seed(c);  // node 2 is far above the cheap threshold
  const auto plan = go::plan_fusion(g, costs, test_opts());
  EXPECT_TRUE(plan.validate(g));
  const auto u = plan.unit_of[2];
  EXPECT_EQ(plan.units[u].size(), 1u);
}

TEST(FusionPass, DoesNotCrossSectionsByDefault) {
  dc::TaskGraph g;
  g.add_node("a", [] {}, "deckA");
  g.add_node("b", [] {}, "deckB");
  g.add_edge(0, 1);
  const go::CostModel costs(2, 0.5);
  const auto plan = go::plan_fusion(g, costs, test_opts());
  EXPECT_EQ(plan.fused_unit_count(), 0u);

  auto opt = test_opts();
  opt.fuse_across_sections = true;
  const auto fused = go::plan_fusion(g, costs, opt);
  EXPECT_EQ(fused.fused_unit_count(), 1u);
}

TEST(FusionPass, FusesSingleUseFanInClusters) {
  const auto g = make_fan_in(3);
  const go::CostModel costs(4, 0.5);
  const auto plan = go::plan_fusion(g, costs, test_opts());
  EXPECT_TRUE(plan.validate(g));
  EXPECT_EQ(plan.unit_count(), 1u);
  EXPECT_EQ(plan.units[0].size(), 4u);
  // The join runs last inside the unit.
  EXPECT_EQ(plan.units[0].back(), static_cast<dc::NodeId>(3));
}

TEST(FusionPass, FanInWithOutsideConsumerIsNotAbsorbed) {
  // p0, p1 -> join, but p0 also feeds an unrelated sink: absorbing p0
  // into the join's unit would put the sink's dependency inside a unit.
  dc::TaskGraph g;
  g.add_node("p0", [] {}, "master");
  g.add_node("p1", [] {}, "master");
  g.add_node("join", [] {}, "master");
  g.add_node("sink", [] {}, "master");
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  const go::CostModel costs(4, 0.5);
  const auto plan = go::plan_fusion(g, costs, test_opts());
  EXPECT_TRUE(plan.validate(g));
  // p0 must not share a unit with the join.
  EXPECT_NE(plan.unit_of[0], plan.unit_of[2]);
}

TEST(FusionPass, AlwaysProducesAValidPlanOnRandomDags) {
  // Property sweep: many shapes, random cost assignments. Every plan
  // must pass the full legality re-check and respect the budgets.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 20 + (seed % 4) * 15;
    const double p = 0.03 + 0.04 * static_cast<double>(seed % 3);
    djstar::test::RandomDag dag(n, p, seed);
    go::CostModel costs(n, 1.0);
    std::vector<double> c(n);
    djstar::support::Xoshiro256 rng(seed * 977);
    for (auto& v : c) v = rng.uniform() * 6.0;  // mix of cheap/expensive
    costs.seed(c);

    auto opt = test_opts();
    const auto plan = go::plan_fusion(dag.g, costs, opt);
    ASSERT_TRUE(plan.validate(dag.g)) << "seed " << seed;
    for (const auto& unit : plan.units) {
      ASSERT_LE(unit.size(), opt.max_unit_size) << "seed " << seed;
      if (unit.size() > 1) {
        double total = 0.0;
        for (auto m : unit) total += costs.cost(m);
        ASSERT_LE(total, opt.max_unit_cost_us + 1e-9) << "seed " << seed;
        // Same-section constraint (fuse_across_sections is off).
        for (auto m : unit) {
          ASSERT_EQ(dag.g.section(m), dag.g.section(unit.front()))
              << "seed " << seed;
        }
      }
    }
  }
}

// ---- compiled unit structure ------------------------------------------------

TEST(CompiledUnits, IdentityLayerMirrorsNodes) {
  djstar::test::RandomDag dag(30, 0.1, 5);
  dc::CompiledGraph cg(dag.g);
  ASSERT_EQ(cg.unit_count(), cg.node_count());
  EXPECT_FALSE(cg.fused());
  ASSERT_EQ(cg.unit_order().size(), cg.order().size());
  for (std::size_t i = 0; i < cg.order().size(); ++i) {
    EXPECT_EQ(cg.unit_order()[i], cg.order()[i]);
  }
  for (dc::NodeId n = 0; n < cg.node_count(); ++n) {
    EXPECT_EQ(cg.unit_of(n), n);
    ASSERT_EQ(cg.unit_members(n).size(), 1u);
    EXPECT_EQ(cg.unit_members(n)[0], n);
    EXPECT_EQ(cg.unit_in_degree(n), cg.in_degree(n));
    EXPECT_EQ(cg.unit_depth(n), cg.depth(n));
    EXPECT_EQ(cg.unit_section_index(n), cg.section_index(n));
  }
  EXPECT_EQ(cg.unit_sources().size(), cg.sources().size());
}

TEST(CompiledUnits, FusedStructureIsConsistent) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    djstar::test::RandomDag dag(45, 0.06, seed);
    const std::size_t n = dag.g.node_count();
    const go::CostModel costs(n, 0.5);
    const auto plan = go::plan_fusion(dag.g, costs, test_opts());
    dc::CompiledGraph cg(dag.g, plan);
    ASSERT_EQ(cg.unit_count(), plan.unit_count());
    EXPECT_EQ(cg.fused(), plan.fused_unit_count() > 0);

    // Membership round-trips and covers every node exactly once.
    std::size_t members = 0;
    for (dc::UnitId u = 0; u < cg.unit_count(); ++u) {
      for (dc::NodeId m : cg.unit_members(u)) {
        ASSERT_EQ(cg.unit_of(m), u);
        ++members;
      }
    }
    ASSERT_EQ(members, n);

    // Unit successor lists: deduplicated, no self-edges, and exactly the
    // contraction of the node edges.
    std::set<std::pair<dc::UnitId, dc::UnitId>> expected;
    for (dc::NodeId v = 0; v < n; ++v) {
      for (dc::NodeId s : cg.successors(v)) {
        if (cg.unit_of(v) != cg.unit_of(s)) {
          expected.insert({cg.unit_of(v), cg.unit_of(s)});
        }
      }
    }
    std::set<std::pair<dc::UnitId, dc::UnitId>> actual;
    std::vector<std::uint32_t> indeg(cg.unit_count(), 0);
    for (dc::UnitId u = 0; u < cg.unit_count(); ++u) {
      const auto succs = cg.unit_successors(u);
      for (std::size_t i = 0; i < succs.size(); ++i) {
        ASSERT_NE(succs[i], u) << "self-edge on unit " << u;
        ASSERT_TRUE(actual.insert({u, succs[i]}).second)
            << "duplicate unit edge " << u << " -> " << succs[i];
        ++indeg[succs[i]];
      }
    }
    ASSERT_EQ(actual, expected) << "seed " << seed;
    for (dc::UnitId u = 0; u < cg.unit_count(); ++u) {
      ASSERT_EQ(cg.unit_in_degree(u), indeg[u]);
    }

    // unit_order is a dependency-safe permutation of the units.
    std::vector<std::size_t> pos(cg.unit_count(), 0);
    ASSERT_EQ(cg.unit_order().size(), cg.unit_count());
    for (std::size_t i = 0; i < cg.unit_order().size(); ++i) {
      pos[cg.unit_order()[i]] = i;
    }
    for (const auto& [from, to] : actual) {
      ASSERT_LT(pos[from], pos[to]) << "unit order violates an edge";
    }
    // unit_sources is exactly the zero-in-degree prefix.
    for (std::size_t i = 0; i < cg.unit_sources().size(); ++i) {
      ASSERT_EQ(cg.unit_in_degree(cg.unit_sources()[i]), 0u);
    }
  }
}
