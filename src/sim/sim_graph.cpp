#include "djstar/sim/sim_graph.hpp"

#include <algorithm>

#include "djstar/support/assert.hpp"

namespace djstar::sim {

SimGraph SimGraph::from_compiled(const core::CompiledGraph& g,
                                 std::span<const double> durations) {
  DJSTAR_ASSERT_MSG(durations.size() == g.node_count(),
                    "need one duration per node");
  SimGraph s;
  const std::size_t n = g.node_count();
  s.successors.resize(n);
  s.predecessors.resize(n);
  s.duration_us.assign(durations.begin(), durations.end());
  s.section.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    s.section[i] = g.section_index(i);
    for (NodeId succ : g.successors(i)) {
      s.successors[i].push_back(succ);
      s.predecessors[succ].push_back(i);
    }
  }
  s.order.assign(g.order().begin(), g.order().end());
  return s;
}

void SimGraph::validate() const {
  const std::size_t n = node_count();
  DJSTAR_ASSERT(successors.size() == n && predecessors.size() == n);
  DJSTAR_ASSERT(order.size() == n);
  for (double d : duration_us) DJSTAR_ASSERT_MSG(d >= 0, "negative duration");
  // order must schedule every predecessor before its successor.
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[order[i]] = i;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId p : predecessors[v]) {
      DJSTAR_ASSERT_MSG(pos[p] < pos[v], "order violates a dependency");
    }
  }
}

double critical_path_us(const SimGraph& g) {
  double best = 0;
  std::vector<double> finish(g.node_count(), 0);
  for (NodeId v : g.order) {
    double start = 0;
    for (NodeId p : g.predecessors[v]) start = std::max(start, finish[p]);
    finish[v] = start + g.duration_us[v];
    best = std::max(best, finish[v]);
  }
  return best;
}

double total_work_us(const SimGraph& g) {
  double sum = 0;
  for (double d : g.duration_us) sum += d;
  return sum;
}

}  // namespace djstar::sim
