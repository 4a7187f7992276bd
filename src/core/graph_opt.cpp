#include "djstar/core/graph_opt.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>

#include "djstar/support/assert.hpp"

namespace djstar::core::graph_opt {

std::string_view to_string(Mode m) noexcept {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kFuse: return "fuse";
  }
  return "?";
}

std::optional<Mode> parse_mode(std::string_view name) noexcept {
  if (name == "off") return Mode::kOff;
  if (name == "fuse") return Mode::kFuse;
  return std::nullopt;
}

std::optional<Mode> mode_from_env() {
  const char* raw = std::getenv("DJSTAR_GRAPH_OPT");
  if (raw == nullptr) return std::nullopt;
  std::string s(raw);
  const auto b = s.find_first_not_of(" \t");
  const auto e = s.find_last_not_of(" \t");
  if (b == std::string::npos) {
    throw std::invalid_argument("DJSTAR_GRAPH_OPT: empty value");
  }
  const auto mode = parse_mode(std::string_view(s).substr(b, e - b + 1));
  if (!mode) {
    throw std::invalid_argument(
        "DJSTAR_GRAPH_OPT: expected off or fuse, got '" + s +
        "'");
  }
  return mode;
}

// ---- CostModel --------------------------------------------------------------

CostModel::CostModel(std::size_t n, double default_cost_us)
    : cost_(n, default_cost_us) {}

void CostModel::seed(std::span<const double> costs) {
  DJSTAR_ASSERT_MSG(costs.size() == cost_.size(),
                    "cost seed must cover every node");
  std::copy(costs.begin(), costs.end(), cost_.begin());
}

// ---- Plan -------------------------------------------------------------------

std::size_t Plan::fused_unit_count() const noexcept {
  std::size_t k = 0;
  for (const auto& u : units) {
    if (u.size() > 1) ++k;
  }
  return k;
}

Plan Plan::identity(std::size_t n) {
  Plan p;
  p.units.resize(n);
  p.unit_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.units[i] = {static_cast<NodeId>(i)};
    p.unit_of[i] = static_cast<std::uint32_t>(i);
  }
  return p;
}

bool Plan::validate(const TaskGraph& g) const {
  const std::size_t n = g.node_count();
  if (unit_of.size() != n) return false;

  // Exact partition: every node in exactly one unit, maps consistent.
  std::vector<std::uint8_t> seen(n, 0);
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (units[u].empty()) return false;
    for (NodeId m : units[u]) {
      if (m >= n || seen[m] || unit_of[m] != u) return false;
      seen[m] = 1;
    }
  }
  for (std::uint8_t s : seen) {
    if (!s) return false;
  }

  // Intra-unit edges must respect the member order.
  std::vector<std::uint32_t> rank(n, 0);
  for (const auto& members : units) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      rank[members[i]] = static_cast<std::uint32_t>(i);
    }
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b : g.successors(a)) {
      if (unit_of[a] == unit_of[b] && rank[a] >= rank[b]) return false;
    }
  }

  // Convexity: the contracted unit graph must stay acyclic (Kahn).
  const std::size_t nu = units.size();
  std::vector<std::vector<std::uint32_t>> usucc(nu);
  std::vector<std::uint32_t> indeg(nu, 0);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b : g.successors(a)) {
      if (unit_of[a] != unit_of[b]) usucc[unit_of[a]].push_back(unit_of[b]);
    }
  }
  for (std::size_t u = 0; u < nu; ++u) {
    auto& s = usucc[u];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    for (std::uint32_t t : s) ++indeg[t];
  }
  std::queue<std::uint32_t> ready;
  for (std::size_t u = 0; u < nu; ++u) {
    if (indeg[u] == 0) ready.push(static_cast<std::uint32_t>(u));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::uint32_t u = ready.front();
    ready.pop();
    ++processed;
    for (std::uint32_t t : usucc[u]) {
      if (--indeg[t] == 0) ready.push(t);
    }
  }
  return processed == nu;
}

// ---- fusion pass ------------------------------------------------------------

Plan plan_fusion(const TaskGraph& g, const CostModel& costs,
                 const FusionOptions& opt) {
  const std::size_t n = g.node_count();
  DJSTAR_ASSERT_MSG(costs.node_count() == n,
                    "cost model must cover every node");
  const auto topo = g.topological_order();
  DJSTAR_ASSERT_MSG(topo.size() == n, "fusion input must be acyclic");

  const double cheap_cutoff = opt.fuse_threshold * opt.dispatch_overhead_us;
  const auto cheap = [&](NodeId v) { return costs.cost(v) < cheap_cutoff; };
  const auto same_section = [&](NodeId a, NodeId b) {
    return opt.fuse_across_sections || g.section(a) == g.section(b);
  };

  std::vector<std::uint32_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[topo[i]] = static_cast<std::uint32_t>(i);

  constexpr std::uint32_t kUnassigned = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> unit_of(n, kUnassigned);
  std::vector<std::vector<NodeId>> clusters;

  const auto open_cluster = [&](std::vector<NodeId> members) {
    const auto id = static_cast<std::uint32_t>(clusters.size());
    for (NodeId m : members) unit_of[m] = id;
    clusters.push_back(std::move(members));
  };

  // Pass 1 — fan-in clusters: a cheap join node absorbs the cheap
  // predecessors whose only successor it is. Convex: every absorbed
  // predecessor has no edge leaving the cluster except into the join,
  // so a re-entering path would be a cycle in the original DAG.
  for (NodeId j : topo) {
    if (unit_of[j] != kUnassigned || !cheap(j)) continue;
    std::vector<NodeId> members;
    double total = costs.cost(j);
    for (NodeId p : g.predecessors(j)) {
      if (unit_of[p] != kUnassigned || g.out_degree(p) != 1) continue;
      if (!cheap(p) || !same_section(p, j)) continue;
      if (members.size() + 2 > opt.max_unit_size) break;
      if (total + costs.cost(p) > opt.max_unit_cost_us) break;
      total += costs.cost(p);
      members.push_back(p);
    }
    // A single absorbable predecessor is the chain pass's job (and the
    // chain pass can keep extending it); only true fan-ins fuse here.
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end(),
              [&](NodeId a, NodeId b) { return pos[a] < pos[b]; });
    members.push_back(j);
    open_cluster(std::move(members));
  }

  // Pass 2 — linear chains: fuse a -> b while a's only successor is b
  // and b's only predecessor is a. Always convex: an alternative path
  // a ~> b would give b a second predecessor.
  for (NodeId head : topo) {
    if (unit_of[head] != kUnassigned || !cheap(head)) continue;
    std::vector<NodeId> members{head};
    double total = costs.cost(head);
    NodeId tail = head;
    while (members.size() < opt.max_unit_size) {
      if (g.out_degree(tail) != 1) break;
      const NodeId next = g.successors(tail)[0];
      if (unit_of[next] != kUnassigned || g.in_degree(next) != 1) break;
      if (!cheap(next) || !same_section(tail, next)) break;
      if (total + costs.cost(next) > opt.max_unit_cost_us) break;
      total += costs.cost(next);
      members.push_back(next);
      tail = next;
    }
    if (members.size() < 2) continue;
    open_cluster(std::move(members));
  }

  // Pass 3 — sink batches: independent cheap sinks (out-degree zero)
  // with identical predecessor sets share one dispatch. This is the DJ
  // graph's dominant cheap shape — per-deck control utilities (no edges
  // at all: the empty predecessor set) and the mixer-fed accounting
  // leaves. Trivially convex: members have no outgoing edges, so no
  // path leaves the unit, and identical predecessor sets mean no member
  // precedes another.
  {
    std::map<std::pair<std::string_view, std::vector<NodeId>>,
             std::vector<NodeId>>
        groups;
    for (NodeId v : topo) {
      if (unit_of[v] != kUnassigned || !cheap(v)) continue;
      if (g.out_degree(v) != 0) continue;
      std::vector<NodeId> preds(g.predecessors(v).begin(),
                                g.predecessors(v).end());
      std::sort(preds.begin(), preds.end());
      const std::string_view sec =
          opt.fuse_across_sections ? std::string_view{} : g.section(v);
      groups[{sec, std::move(preds)}].push_back(v);
    }
    for (auto& [key, members] : groups) {
      if (members.size() < 2) continue;
      std::vector<NodeId> batch;
      double total = 0.0;
      const auto flush = [&] {
        if (batch.size() >= 2) open_cluster(std::move(batch));
        batch = {};
        total = 0.0;
      };
      for (NodeId v : members) {  // topo order by construction
        if (batch.size() + 1 > opt.max_unit_size ||
            total + costs.cost(v) > opt.max_unit_cost_us) {
          flush();
        }
        total += costs.cost(v);
        batch.push_back(v);
      }
      flush();
    }
  }

  // Remaining nodes become singleton units.
  for (NodeId v : topo) {
    if (unit_of[v] == kUnassigned) open_cluster({v});
  }

  // Renumber units by the topological position of their first member so
  // unit ids are deterministic and roughly dependency-ordered.
  std::vector<std::uint32_t> by_pos(clusters.size());
  for (std::size_t u = 0; u < clusters.size(); ++u) {
    by_pos[u] = static_cast<std::uint32_t>(u);
  }
  std::sort(by_pos.begin(), by_pos.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return pos[clusters[a].front()] < pos[clusters[b].front()];
            });

  Plan plan;
  plan.units.reserve(clusters.size());
  plan.unit_of.resize(n);
  for (std::uint32_t old : by_pos) {
    const auto id = static_cast<std::uint32_t>(plan.units.size());
    for (NodeId m : clusters[old]) plan.unit_of[m] = id;
    plan.units.push_back(std::move(clusters[old]));
  }
  DJSTAR_ASSERT_MSG(plan.validate(g), "fusion produced an illegal plan");
  return plan;
}

}  // namespace djstar::core::graph_opt
