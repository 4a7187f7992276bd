#include "djstar/core/compiled_graph.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "djstar/support/assert.hpp"
#include "djstar/support/time.hpp"

namespace djstar::core {

CompiledGraph::CompiledGraph(const TaskGraph& g, QueueOrder order_mode,
                             std::span<const NodeId> always_run) {
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

  always_run_.assign(n, 0);
  for (NodeId a : always_run) {
    DJSTAR_ASSERT_MSG(a < n, "always-run node out of range");
    always_run_[a] = 1;
  }

  cycle_ = std::make_unique<CycleState[]>(n);
  masked_.assign(n, 0);
  bypass_.resize(n);
  fault_eligible_.assign(n, 0);
  begin_cycle();
}

void CompiledGraph::begin_cycle() noexcept {
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) {
    cycle_[i].pending.store(static_cast<std::int32_t>(indeg_[i]),
                            std::memory_order_relaxed);
    cycle_[i].waiter.store(-1, std::memory_order_relaxed);
    cycle_[i].wfault.store(0, std::memory_order_relaxed);
    cycle_[i].claim.store(0, std::memory_order_relaxed);
  }
  nodes_done_.store(0, std::memory_order_relaxed);
  ++cycle_index_;
  fault_node_.store(-1, std::memory_order_relaxed);
  skipped_.store(0, std::memory_order_relaxed);
  bypassed_.store(0, std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  abort_cycle_.store(false, std::memory_order_relaxed);
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
  for (NodeId i = 0; i < node_count(); ++i) {
    if (always_run_[i]) fault_eligible_[i] = 0;
  }
  faults_armed_ = plan.any();
  worker_faults_possible_ = plan.any_worker();
}

chaos::FaultKind CompiledGraph::take_worker_fault(NodeId n) noexcept {
  if (!fault_eligible_[n]) return chaos::FaultKind::kNone;
  const chaos::FaultAction act = chaos::decide(fault_plan_, cycle_index_, n);
  if (act.kind != chaos::FaultKind::kStallForever &&
      act.kind != chaos::FaultKind::kWorkerAbort) {
    return chaos::FaultKind::kNone;
  }
  // One-shot per (cycle, node): the adopted node re-reaches this check
  // on a surviving worker, which must not wedge too.
  std::uint8_t expected = 0;
  if (!cycle_[n].wfault.compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel)) {
    return chaos::FaultKind::kNone;
  }
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr) {
    journal_->push(support::EventKind::kFaultInjected, cycle_index_,
                   static_cast<std::int64_t>(n),
                   static_cast<std::int64_t>(act.kind), act.duration_us);
  }
  return act.kind;
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
  const bool conditional = always_run_[n] == 0;
  if (conditional && abort_cycle_.load(std::memory_order_acquire)) {
    // Failed/cancelled cycle: drain. Dependencies still resolve in the
    // caller, so every executor's protocol completes without running
    // the remaining work.
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (conditional && masked_[n]) {
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
      // loop consumes them (take_worker_fault) before the node's body
      // reaches here; winning the one-shot CAS means no medic
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
