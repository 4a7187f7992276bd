#include "djstar/core/compiled_graph.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <queue>
#include <thread>

#include "djstar/support/assert.hpp"
#include "djstar/support/time.hpp"

namespace djstar::core {

CompiledGraph::CompiledGraph(const TaskGraph& g, QueueOrder order_mode)
    : CompiledGraph(g, graph_opt::Plan::identity(g.node_count()), order_mode) {}

CompiledGraph::CompiledGraph(const TaskGraph& g, const graph_opt::Plan& plan,
                             QueueOrder order_mode) {
  const std::size_t n = g.node_count();
  DJSTAR_ASSERT_MSG(n > 0, "cannot compile an empty graph");
  DJSTAR_ASSERT_MSG(g.is_acyclic(), "task graph must be acyclic");

  names_.reserve(n);
  sections_.reserve(n);
  works_.reserve(n);
  indeg_.resize(n);
  section_idx_.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    DJSTAR_ASSERT_MSG(static_cast<bool>(g.work(i)),
                      "every node needs a work function");
    names_.emplace_back(g.name(i));
    sections_.emplace_back(g.section(i));
    works_.push_back(g.work(i));
    indeg_[i] = static_cast<std::uint32_t>(g.in_degree(i));

    const std::string sec(g.section(i));
    auto it = std::find(section_labels_.begin(), section_labels_.end(), sec);
    if (it == section_labels_.end()) {
      section_idx_[i] = static_cast<std::uint32_t>(section_labels_.size());
      section_labels_.push_back(sec);
    } else {
      section_idx_[i] =
          static_cast<std::uint32_t>(it - section_labels_.begin());
    }
  }

  // CSR successor lists.
  succ_off_.resize(n + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    succ_off_[i + 1] = succ_off_[i] + g.successors(i).size();
  }
  succ_list_.resize(succ_off_[n]);
  for (NodeId i = 0; i < n; ++i) {
    std::size_t off = succ_off_[i];
    for (NodeId s : g.successors(i)) succ_list_[off++] = s;
  }

  depth_ = g.depths();
  for (auto d : depth_) max_depth_ = std::max(max_depth_, d);
  order_ = order_mode == QueueOrder::kLevelized ? g.levelized_order()
                                                : g.topological_order();
  source_count_ = 0;
  while (source_count_ < order_.size() && depth_[order_[source_count_]] == 0) {
    ++source_count_;
  }

  cycle_ = std::make_unique<CycleState[]>(n);
  masked_.assign(n, 0);
  bypass_.resize(n);
  fault_eligible_.assign(n, 0);
  build_units(g, plan, order_mode);
  begin_cycle();
}

void CompiledGraph::build_units(const TaskGraph& g,
                                const graph_opt::Plan& plan,
                                QueueOrder order_mode) {
  DJSTAR_ASSERT_MSG(plan.validate(g), "fusion plan failed legality check");
  const std::size_t nu = plan.unit_count();
  unit_of_ = plan.unit_of;
  fused_ = plan.fused_unit_count() > 0;

  // Member CSR.
  unit_mem_off_.assign(nu + 1, 0);
  for (std::size_t u = 0; u < nu; ++u) {
    unit_mem_off_[u + 1] = unit_mem_off_[u] + plan.units[u].size();
  }
  unit_mem_list_.resize(unit_mem_off_[nu]);
  for (std::size_t u = 0; u < nu; ++u) {
    std::size_t off = unit_mem_off_[u];
    for (NodeId m : plan.units[u]) unit_mem_list_[off++] = m;
  }

  // Contracted inter-unit edges, deduplicated (two member edges between
  // the same unit pair must still resolve the counter exactly once).
  std::vector<std::vector<UnitId>> usucc(nu);
  for (NodeId a = 0; a < g.node_count(); ++a) {
    for (NodeId b : g.successors(a)) {
      if (unit_of_[a] != unit_of_[b]) usucc[unit_of_[a]].push_back(unit_of_[b]);
    }
  }
  unit_indeg_.assign(nu, 0);
  unit_succ_off_.assign(nu + 1, 0);
  for (std::size_t u = 0; u < nu; ++u) {
    auto& s = usucc[u];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    unit_succ_off_[u + 1] = unit_succ_off_[u] + s.size();
    for (UnitId t : s) ++unit_indeg_[t];
  }
  unit_succ_list_.resize(unit_succ_off_[nu]);
  for (std::size_t u = 0; u < nu; ++u) {
    std::size_t off = unit_succ_off_[u];
    for (UnitId t : usucc[u]) unit_succ_list_[off++] = t;
  }

  // Unit depths (longest-path layering) via Kahn, and the unit queue in
  // the same discipline as the node queue: levelized (depth-sorted,
  // id tie-break) or plain Kahn topological with min-id selection. For
  // the identity plan both reduce to exactly order().
  unit_depth_.assign(nu, 0);
  std::vector<std::uint32_t> indeg(unit_indeg_);
  std::priority_queue<UnitId, std::vector<UnitId>, std::greater<>> ready;
  for (std::size_t u = 0; u < nu; ++u) {
    if (indeg[u] == 0) ready.push(static_cast<UnitId>(u));
  }
  std::vector<UnitId> topo;
  topo.reserve(nu);
  while (!ready.empty()) {
    const UnitId u = ready.top();
    ready.pop();
    topo.push_back(u);
    for (UnitId t : unit_successors(u)) {
      unit_depth_[t] = std::max(unit_depth_[t], unit_depth_[u] + 1);
      if (--indeg[t] == 0) ready.push(t);
    }
  }
  DJSTAR_ASSERT_MSG(topo.size() == nu, "unit graph must be acyclic");

  if (order_mode == QueueOrder::kLevelized) {
    unit_order_.resize(nu);
    for (std::size_t u = 0; u < nu; ++u) {
      unit_order_[u] = static_cast<UnitId>(u);
    }
    std::stable_sort(unit_order_.begin(), unit_order_.end(),
                     [&](UnitId a, UnitId b) {
                       return unit_depth_[a] < unit_depth_[b];
                     });
  } else {
    unit_order_ = std::move(topo);
  }
  unit_source_count_ = 0;
  while (unit_source_count_ < unit_order_.size() &&
         unit_depth_[unit_order_[unit_source_count_]] == 0) {
    ++unit_source_count_;
  }

  unit_cycle_ = std::make_unique<CycleState[]>(nu);
}

void CompiledGraph::begin_cycle() noexcept {
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) {
    cycle_[i].pending.store(static_cast<std::int32_t>(indeg_[i]),
                            std::memory_order_relaxed);
    cycle_[i].waiter.store(-1, std::memory_order_relaxed);
    cycle_[i].wfault.store(0, std::memory_order_relaxed);
  }
  const std::size_t nu = unit_count();
  for (std::size_t u = 0; u < nu; ++u) {
    unit_cycle_[u].pending.store(static_cast<std::int32_t>(unit_indeg_[u]),
                                 std::memory_order_relaxed);
    unit_cycle_[u].waiter.store(-1, std::memory_order_relaxed);
    unit_cycle_[u].claim.store(0, std::memory_order_relaxed);
  }
  units_done_.store(0, std::memory_order_relaxed);
  ++cycle_index_;
  fault_node_.store(-1, std::memory_order_relaxed);
  skipped_.store(0, std::memory_order_relaxed);
  bypassed_.store(0, std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  abort_cycle_.store(false, std::memory_order_relaxed);
  // Publish the reset before any worker reads the counters.
  std::atomic_thread_fence(std::memory_order_release);
}

void CompiledGraph::arm_faults(const chaos::FaultPlan& plan) {
  fault_plan_ = plan;
  if (plan.targets.empty()) {
    fault_eligible_.assign(node_count(), 1);
  } else {
    fault_eligible_.assign(node_count(), 0);
    for (NodeId t : plan.targets) {
      if (t < node_count()) fault_eligible_[t] = 1;
    }
  }
  faults_armed_ = plan.any();
  worker_faults_possible_ = plan.any_worker();
}

chaos::FaultKind CompiledGraph::take_worker_fault(UnitId u) noexcept {
  for (NodeId n : unit_members(u)) {
    if (!fault_eligible_[n]) continue;
    const chaos::FaultAction act = chaos::decide(fault_plan_, cycle_index_, n);
    if (act.kind != chaos::FaultKind::kStallForever &&
        act.kind != chaos::FaultKind::kWorkerAbort) {
      continue;
    }
    // One-shot per (cycle, node): the adopted unit re-reaches this
    // check on a surviving worker, which must not wedge too.
    std::uint8_t expected = 0;
    if (!cycle_[n].wfault.compare_exchange_strong(expected, 1,
                                                  std::memory_order_acq_rel)) {
      continue;
    }
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    if (journal_ != nullptr) {
      journal_->push(support::EventKind::kFaultInjected, cycle_index_,
                     static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(act.kind), act.duration_us);
    }
    return act.kind;
  }
  return chaos::FaultKind::kNone;
}

void CompiledGraph::record_fault(NodeId n, const char* what) noexcept {
  std::int32_t expected = -1;
  if (fault_node_.compare_exchange_strong(expected, static_cast<std::int32_t>(n),
                                          std::memory_order_acq_rel)) {
    // Sole writer of the message this cycle; fixed buffer, no allocation.
    std::strncpy(fault_what_, what ? what : "", sizeof(fault_what_) - 1);
    fault_what_[sizeof(fault_what_) - 1] = '\0';
  }
  abort_cycle_.store(true, std::memory_order_release);
}

void CompiledGraph::execute(NodeId n) noexcept {
  if (abort_cycle_.load(std::memory_order_acquire)) {
    // Failed/cancelled cycle: drain. Dependencies still resolve in the
    // caller, so every executor's protocol completes without running
    // the remaining work.
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (masked_[n]) {
    skipped_.fetch_add(1, std::memory_order_relaxed);
    if (bypass_[n]) {
      bypassed_.fetch_add(1, std::memory_order_relaxed);
      try {
        bypass_[n]();
      } catch (const std::exception& e) {
        record_fault(n, e.what());
      } catch (...) {
        record_fault(n, "unknown exception (bypass)");
      }
    }
    return;
  }

  chaos::FaultAction act{};
  if (faults_armed_ && fault_eligible_[n]) {
    act = chaos::decide(fault_plan_, cycle_index_, n);
    if (act.kind == chaos::FaultKind::kStallForever ||
        act.kind == chaos::FaultKind::kWorkerAbort) {
      // Worker faults have one consumer per (cycle, node). The healing
      // executors consume at unit granule (take_worker_fault) before the
      // unit body reaches here; winning the one-shot CAS means no medic
      // is watching this thread, so the kinds degrade to thread-safe
      // stand-ins — a bounded stall / a no-op — and no configuration can
      // hang on a fault that needs a medic to resolve.
      std::uint8_t expected = 0;
      if (!cycle_[n].wfault.compare_exchange_strong(
              expected, 1, std::memory_order_acq_rel)) {
        act = {};
      }
    }
    if (act.kind != chaos::FaultKind::kNone) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->push(support::EventKind::kFaultInjected, cycle_index_,
                       static_cast<std::int64_t>(n),
                       static_cast<std::int64_t>(act.kind), act.duration_us);
      }
    }
  }

  try {
    if (act.kind == chaos::FaultKind::kThrow) throw chaos::InjectedFault(n);
    works_[n]();
  } catch (const std::exception& e) {
    record_fault(n, e.what());
    return;
  } catch (...) {
    record_fault(n, "unknown exception");
    return;
  }

  switch (act.kind) {
    case chaos::FaultKind::kLatencySpike:
      support::spin_for_us(act.duration_us);
      break;
    case chaos::FaultKind::kStall:
    case chaos::FaultKind::kStallForever:  // unhealed: bounded stand-in
      // A stuck worker blocks (page fault / priority inversion); unlike
      // the spike it yields the core, so thieves and siblings keep going.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(act.duration_us));
      break;
    case chaos::FaultKind::kNanOutput:
      if (poison_) poison_(n);
      break;
    default:
      break;
  }
}

}  // namespace djstar::core
