#include "djstar/support/attrib.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace djstar::support::attrib {
namespace {

constexpr double kEps = 1e-9;

bool is_wait(SpanKind k) noexcept {
  return k == SpanKind::kSteal || k == SpanKind::kSleep ||
         k == SpanKind::kBusyWait;
}

double overlap(const TraceSpan& s, double lo, double hi) noexcept {
  const double a = std::max(s.begin_us, lo);
  const double b = std::min(s.end_us, hi);
  return b > a ? b - a : 0.0;
}

void append_f(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.3f", key, v);
  out += buf;
}

void append_i(std::string& out, const char* key, long long v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%lld", key, v);
  out += buf;
}

}  // namespace

const char* to_string(GapKind k) noexcept {
  switch (k) {
    case GapKind::kNone: return "none";
    case GapKind::kStealIdle: return "steal-idle";
    case GapKind::kBarrier: return "barrier";
    case GapKind::kOverhead: return "overhead";
  }
  return "?";
}

double CycleAttribution::total_run_us() const noexcept {
  double sum = 0;
  for (const WorkerBucket& w : workers) sum += w.run_us;
  return sum;
}

CriticalPathAnalyzer::CriticalPathAnalyzer(
    std::vector<std::vector<std::int32_t>> preds)
    : preds_(std::move(preds)) {}

const CycleAttribution& CriticalPathAnalyzer::analyze(
    std::span<const TraceSpan> spans, std::uint64_t cycle) {
  CycleAttribution& r = result_;
  r.cycle = cycle;
  r.makespan_us = r.cp_run_us = r.cp_wait_us = 0;
  r.cp_steal_idle_us = r.cp_barrier_us = r.cp_overhead_us = 0;
  r.path.clear();
  r.workers.clear();
  if (spans.empty()) return r;

  std::uint32_t workers = 0;
  for (const TraceSpan& s : spans) workers = std::max(workers, s.thread + 1);
  r.workers.assign(workers, WorkerBucket{});

  // One pass: lane ranges, per-node span index (last occurrence wins, so
  // a healed re-run shadows the victim's abandoned attempt), same-worker
  // previous-run links, and the last-finishing run (the chain sink).
  const auto n_spans = static_cast<std::uint32_t>(spans.size());
  lane_begin_.assign(workers, n_spans);
  lane_end_.assign(workers, 0);
  last_run_.assign(workers, -1);
  node_span_.assign(preds_.size(), -1);
  prev_on_lane_.assign(spans.size(), -1);
  std::int32_t sink = -1;
  double sink_end = 0;
  for (std::uint32_t i = 0; i < n_spans; ++i) {
    const TraceSpan& s = spans[i];
    lane_begin_[s.thread] = std::min(lane_begin_[s.thread], i);
    lane_end_[s.thread] = i + 1;
    if (s.kind != SpanKind::kRun) continue;
    prev_on_lane_[i] = last_run_[s.thread];
    last_run_[s.thread] = static_cast<std::int32_t>(i);
    if (s.node >= 0 && static_cast<std::size_t>(s.node) < preds_.size()) {
      node_span_[static_cast<std::size_t>(s.node)] =
          static_cast<std::int32_t>(i);
    }
    if (sink < 0 || s.end_us > sink_end) {
      sink = static_cast<std::int32_t>(i);
      sink_end = s.end_us;
    }
  }
  if (sink < 0) return r;  // no run spans this cycle (e.g. safe mode)
  r.makespan_us = sink_end;

  // Classify the gap (lo, hi) on `worker`: mostly covered by wait spans
  // means the worker was probing for unpublished work; an uncovered gap
  // is scheduler/supervisor overhead (or the cycle-start barrier when it
  // leads the worker's first activity).
  const auto classify = [&](std::uint32_t worker, double lo, double hi,
                            bool leading) -> GapKind {
    if (hi - lo <= kEps) return GapKind::kNone;
    double covered = 0;
    for (std::uint32_t i = lane_begin_[worker]; i < lane_end_[worker]; ++i) {
      if (is_wait(spans[i].kind)) covered += overlap(spans[i], lo, hi);
    }
    if (covered >= 0.5 * (hi - lo)) return GapKind::kStealIdle;
    return leading ? GapKind::kBarrier : GapKind::kOverhead;
  };

  // Back-walk: each step's start was bound by the later of (a) its
  // slowest graph predecessor finishing and (b) its worker's previous
  // run finishing. Following the binding constraint partitions
  // [0, makespan] into the chain's runs and gaps exactly.
  std::int32_t cur = sink;
  for (std::size_t guard = spans.size() + 1; guard > 0; --guard) {
    const TraceSpan& s = spans[static_cast<std::uint32_t>(cur)];
    PathStep st;
    st.node = s.node;
    st.worker = s.thread;
    st.steal_from = s.steal_from;
    st.run_begin_us = s.begin_us;
    st.run_end_us = s.end_us;

    std::int32_t dep = -1;
    double dep_end = 0;
    if (s.node >= 0 && static_cast<std::size_t>(s.node) < preds_.size()) {
      for (std::int32_t p : preds_[static_cast<std::size_t>(s.node)]) {
        if (p < 0 || static_cast<std::size_t>(p) >= node_span_.size()) continue;
        const std::int32_t pi = node_span_[static_cast<std::size_t>(p)];
        if (pi < 0 || pi == cur) continue;
        const double e = spans[static_cast<std::uint32_t>(pi)].end_us;
        if (dep < 0 || e > dep_end) {
          dep = pi;
          dep_end = e;
        }
      }
    }
    const std::int32_t prev = prev_on_lane_[static_cast<std::uint32_t>(cur)];
    const double prev_end =
        prev >= 0 ? spans[static_cast<std::uint32_t>(prev)].end_us : 0;

    if (dep < 0 && prev < 0) {
      // Chain source: the leading gap runs from the cycle start.
      st.wait_us = std::max(0.0, s.begin_us);
      st.wait_kind = classify(s.thread, 0.0, s.begin_us, /*leading=*/true);
      r.path.push_back(st);
      break;
    }
    std::int32_t next;
    if (prev < 0 || (dep >= 0 && dep_end >= prev_end)) {
      next = dep;
      st.dep_bound = true;
      st.pred_node = spans[static_cast<std::uint32_t>(dep)].node;
    } else {
      next = prev;
    }
    const double bound_end = spans[static_cast<std::uint32_t>(next)].end_us;
    st.wait_us = std::max(0.0, s.begin_us - bound_end);
    st.wait_kind = st.wait_us <= kEps
                       ? GapKind::kNone
                       : classify(s.thread, bound_end, s.begin_us, false);
    r.path.push_back(st);
    cur = next;
  }
  std::reverse(r.path.begin(), r.path.end());

  for (const PathStep& st : r.path) {
    r.cp_run_us += st.run_us();
    r.cp_wait_us += st.wait_us;
    switch (st.wait_kind) {
      case GapKind::kStealIdle: r.cp_steal_idle_us += st.wait_us; break;
      case GapKind::kBarrier: r.cp_barrier_us += st.wait_us; break;
      case GapKind::kOverhead: r.cp_overhead_us += st.wait_us; break;
      case GapKind::kNone: break;
    }
  }

  // Per-worker buckets partition each worker's share of the makespan.
  for (std::uint32_t w = 0; w < workers; ++w) {
    WorkerBucket& b = r.workers[w];
    double span_overhead = 0;
    double last_end = 0;
    for (std::uint32_t i = lane_begin_[w]; i < lane_end_[w]; ++i) {
      const TraceSpan& s = spans[i];
      const double lo = std::clamp(s.begin_us, 0.0, r.makespan_us);
      const double hi = std::clamp(s.end_us, 0.0, r.makespan_us);
      const double d = hi - lo;
      if (s.kind == SpanKind::kRun) {
        b.run_us += d;
        ++b.runs;
        if (s.steal_from >= 0) ++b.steals;
      } else if (is_wait(s.kind)) {
        b.steal_idle_us += d;
      } else {
        span_overhead += d;
      }
      last_end = std::max(last_end, hi);
    }
    b.barrier_us = r.makespan_us - last_end;  // lane empty: all barrier
    const double residual = r.makespan_us - b.run_us - b.steal_idle_us -
                            b.barrier_us - span_overhead;
    b.overhead_us = span_overhead + std::max(0.0, residual);
  }
  return r;
}

BlameTracker::BlameTracker(std::size_t top_k, double alpha)
    : top_k_(top_k == 0 ? 1 : top_k), alpha_(alpha) {}

double BlameTracker::node_baseline_us(std::int32_t node) const noexcept {
  if (node < 0 || static_cast<std::size_t>(node) >= node_ewma_.size() ||
      !node_seen_[static_cast<std::size_t>(node)]) {
    return 0;
  }
  return node_ewma_[static_cast<std::size_t>(node)];
}

const BlameReport& BlameTracker::on_cycle(const CycleAttribution& at,
                                          std::span<const TraceSpan> spans,
                                          bool missed, double deadline_us) {
  // Per-node actual cost this cycle.
  touched_.clear();
  for (const TraceSpan& s : spans) {
    if (s.kind != SpanKind::kRun || s.node < 0) continue;
    const auto n = static_cast<std::size_t>(s.node);
    if (n >= actual_.size()) {
      actual_.resize(n + 1, 0.0);
      actual_worker_.resize(n + 1, -1);
    }
    if (actual_[n] == 0.0) touched_.push_back(s.node);
    actual_[n] += s.duration_us();
    actual_worker_[n] = static_cast<std::int32_t>(s.thread);
  }
  if (node_ewma_.size() < actual_.size()) {
    node_ewma_.resize(actual_.size(), 0.0);
    node_seen_.resize(actual_.size(), false);
  }
  if (worker_ewma_.size() < at.workers.size()) {
    worker_ewma_.resize(at.workers.size(), 0.0);
    worker_seen_.resize(at.workers.size(), false);
  }

  if (!missed) {
    // Healthy cycle: absorb into baselines. Missed cycles are excluded
    // so a repeating stall cannot become its own baseline.
    for (std::int32_t node : touched_) {
      const auto n = static_cast<std::size_t>(node);
      node_ewma_[n] = node_seen_[n]
                          ? (1.0 - alpha_) * node_ewma_[n] + alpha_ * actual_[n]
                          : actual_[n];
      node_seen_[n] = true;
    }
    for (std::size_t w = 0; w < at.workers.size(); ++w) {
      const WorkerBucket& b = at.workers[w];
      const double nonrun = b.steal_idle_us + b.barrier_us + b.overhead_us;
      worker_ewma_[w] = worker_seen_[w]
                            ? (1.0 - alpha_) * worker_ewma_[w] + alpha_ * nonrun
                            : nonrun;
      worker_seen_[w] = true;
    }
  } else {
    cand_.clear();
    for (std::int32_t node : touched_) {
      const auto n = static_cast<std::size_t>(node);
      BlameEntry e;
      e.node = node;
      e.worker = actual_worker_[n];
      e.actual_us = actual_[n];
      e.baseline_us = node_seen_[n] ? node_ewma_[n] : 0.0;
      e.delta_us = e.actual_us - e.baseline_us;
      cand_.push_back(e);
    }
    std::sort(cand_.begin(), cand_.end(),
              [](const BlameEntry& a, const BlameEntry& b) {
                return a.delta_us > b.delta_us;
              });
    if (cand_.size() > top_k_) cand_.resize(top_k_);
    for (BlameEntry& e : cand_) {
      for (const PathStep& st : at.path) {
        if (st.node == e.node) {
          e.on_path = true;
          break;
        }
      }
    }

    wcand_.clear();
    for (std::size_t w = 0; w < at.workers.size(); ++w) {
      const WorkerBucket& b = at.workers[w];
      WorkerBlame wb;
      wb.worker = static_cast<std::uint32_t>(w);
      wb.nonrun_us = b.steal_idle_us + b.barrier_us + b.overhead_us;
      wb.baseline_us = worker_seen_[w] ? worker_ewma_[w] : 0.0;
      wb.delta_us = wb.nonrun_us - wb.baseline_us;
      wcand_.push_back(wb);
    }
    std::sort(wcand_.begin(), wcand_.end(),
              [](const WorkerBlame& a, const WorkerBlame& b) {
                return a.delta_us > b.delta_us;
              });
    if (wcand_.size() > top_k_) wcand_.resize(top_k_);

    last_.valid = true;
    last_.cycle = at.cycle;
    last_.makespan_us = at.makespan_us;
    last_.deadline_us = deadline_us;
    last_.cp_run_us = at.cp_run_us;
    last_.cp_wait_us = at.cp_wait_us;
    last_.nodes = cand_;
    last_.workers = wcand_;
    ++reports_;
  }

  // Reset per-cycle scratch (touched entries only; stays O(nodes run)).
  for (std::int32_t node : touched_) {
    actual_[static_cast<std::size_t>(node)] = 0.0;
  }
  return last_;
}

void append_json(std::string& out, const CycleAttribution& at) {
  out += '{';
  append_i(out, "cycle", static_cast<long long>(at.cycle));
  out += ',';
  append_f(out, "makespan_us", at.makespan_us);
  out += ',';
  append_f(out, "cp_run_us", at.cp_run_us);
  out += ',';
  append_f(out, "cp_wait_us", at.cp_wait_us);
  out += ',';
  append_f(out, "cp_steal_idle_us", at.cp_steal_idle_us);
  out += ',';
  append_f(out, "cp_barrier_us", at.cp_barrier_us);
  out += ',';
  append_f(out, "cp_overhead_us", at.cp_overhead_us);
  out += ",\"path\":[";
  for (std::size_t i = 0; i < at.path.size(); ++i) {
    const PathStep& st = at.path[i];
    if (i) out += ',';
    out += '{';
    append_i(out, "node", st.node);
    out += ',';
    append_i(out, "worker", st.worker);
    out += ',';
    append_i(out, "steal_from", st.steal_from);
    out += ',';
    append_f(out, "run_us", st.run_us());
    out += ',';
    append_f(out, "wait_us", st.wait_us);
    out += ",\"wait_kind\":\"";
    out += to_string(st.wait_kind);
    out += "\",\"dep_bound\":";
    out += st.dep_bound ? "true" : "false";
    out += ',';
    append_i(out, "pred", st.pred_node);
    out += '}';
  }
  out += "],\"workers\":[";
  for (std::size_t w = 0; w < at.workers.size(); ++w) {
    const WorkerBucket& b = at.workers[w];
    if (w) out += ',';
    out += '{';
    append_f(out, "run_us", b.run_us);
    out += ',';
    append_f(out, "steal_idle_us", b.steal_idle_us);
    out += ',';
    append_f(out, "barrier_us", b.barrier_us);
    out += ',';
    append_f(out, "overhead_us", b.overhead_us);
    out += ',';
    append_i(out, "runs", b.runs);
    out += ',';
    append_i(out, "steals", b.steals);
    out += '}';
  }
  out += "]}";
}

void append_json(std::string& out, const BlameReport& r) {
  out += "{\"valid\":";
  out += r.valid ? "true" : "false";
  out += ',';
  append_i(out, "cycle", static_cast<long long>(r.cycle));
  out += ',';
  append_f(out, "makespan_us", r.makespan_us);
  out += ',';
  append_f(out, "deadline_us", r.deadline_us);
  out += ',';
  append_f(out, "cp_run_us", r.cp_run_us);
  out += ',';
  append_f(out, "cp_wait_us", r.cp_wait_us);
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    const BlameEntry& e = r.nodes[i];
    if (i) out += ',';
    out += '{';
    append_i(out, "node", e.node);
    out += ',';
    append_i(out, "worker", e.worker);
    out += ',';
    append_f(out, "actual_us", e.actual_us);
    out += ',';
    append_f(out, "baseline_us", e.baseline_us);
    out += ',';
    append_f(out, "delta_us", e.delta_us);
    out += ",\"on_path\":";
    out += e.on_path ? "true" : "false";
    out += '}';
  }
  out += "],\"workers\":[";
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const WorkerBlame& w = r.workers[i];
    if (i) out += ',';
    out += '{';
    append_i(out, "worker", w.worker);
    out += ',';
    append_f(out, "nonrun_us", w.nonrun_us);
    out += ',';
    append_f(out, "baseline_us", w.baseline_us);
    out += ',';
    append_f(out, "delta_us", w.delta_us);
    out += '}';
  }
  out += "]}";
}

}  // namespace djstar::support::attrib
