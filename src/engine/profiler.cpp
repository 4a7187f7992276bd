#include "djstar/engine/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#if __has_include(<linux/perf_event.h>)
#define DJSTAR_HAVE_PERF_EVENT 1
#include <linux/perf_event.h>
#endif
#endif

namespace djstar::engine {
namespace {

constexpr double kCpBounds[] = {50,   100,  200,  400,  800,
                                1200, 1600, 2400, 3200, 6400};
// Ranked entries per blame report (nodes and workers each).
constexpr std::size_t kBlameTopK = 5;
// EWMA weight for the per-node, per-worker and critical-path baselines.
constexpr double kBaselineAlpha = 0.1;

void append_f(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.3f", key, v);
  out += buf;
}

void append_u(std::string& out, const char* key, unsigned long long v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%llu", key, v);
  out += buf;
}

#if defined(DJSTAR_HAVE_PERF_EVENT)
int perf_open(std::uint32_t type, std::uint64_t config, std::int32_t tid) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.type = type;
  attr.size = sizeof attr;
  attr.config = config;
  attr.disabled = 0;
  // Counting user-space work only keeps the sampler usable under
  // perf_event_paranoid=1 (the common default).
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(
      ::syscall(SYS_perf_event_open, &attr, tid, -1, -1, 0));
}

std::uint64_t perf_read(int fd) {
  std::uint64_t v = 0;
  if (fd < 0) return 0;
  if (::read(fd, &v, sizeof v) != static_cast<ssize_t>(sizeof v)) return 0;
  return v;
}
#endif

}  // namespace

std::string_view to_string(ProfMode m) noexcept {
  switch (m) {
    case ProfMode::kOff: return "off";
    case ProfMode::kAttrib: return "attrib";
    case ProfMode::kAttribHw: return "attrib+hw";
  }
  return "?";
}

std::optional<ProfMode> parse_prof_mode(std::string_view name) noexcept {
  if (name == "off") return ProfMode::kOff;
  if (name == "attrib") return ProfMode::kAttrib;
  if (name == "attrib+hw") return ProfMode::kAttribHw;
  return std::nullopt;
}

// ---- HwSampler ----

std::int32_t HwSampler::self_tid() noexcept {
#if defined(__linux__)
  return static_cast<std::int32_t>(::syscall(SYS_gettid));
#else
  return 0;
#endif
}

HwSampler::~HwSampler() { close(); }

void HwSampler::close() noexcept {
#if defined(DJSTAR_HAVE_PERF_EVENT)
  for (WorkerFds& w : fds_) {
    for (int& fd : w.fd) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
#endif
  fds_.clear();
  last_.clear();
  totals_.clear();
  available_ = false;
}

bool HwSampler::open(std::span<const std::int32_t> tids) {
  close();
#if defined(DJSTAR_HAVE_PERF_EVENT)
  fds_.resize(tids.size());
  last_.assign(tids.size(), HwCounters{});
  totals_.assign(tids.size(), HwCounters{});
  for (std::size_t w = 0; w < tids.size(); ++w) {
    if (tids[w] <= 0) continue;  // worker not started / unknown platform
    WorkerFds& f = fds_[w];
    f.fd[0] = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, tids[w]);
    f.fd[1] =
        perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, tids[w]);
    f.fd[2] = perf_open(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES,
                        tids[w]);
    f.fd[3] = perf_open(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES,
                        tids[w]);
    for (int fd : f.fd) {
      if (fd >= 0) available_ = true;
    }
  }
  if (!available_) close();
  return available_;
#else
  (void)tids;
  return false;
#endif
}

bool HwSampler::sample(std::vector<HwCounters>& out) {
  out.assign(fds_.size(), HwCounters{});
  if (!available_) return false;
#if defined(DJSTAR_HAVE_PERF_EVENT)
  for (std::size_t w = 0; w < fds_.size(); ++w) {
    const WorkerFds& f = fds_[w];
    HwCounters now;
    now.cycles = perf_read(f.fd[0]);
    now.instructions = perf_read(f.fd[1]);
    now.cache_misses = perf_read(f.fd[2]);
    now.context_switches = perf_read(f.fd[3]);
    HwCounters& prev = last_[w];
    // Counters are monotonic per fd; a delta below the previous read
    // only happens after a reopen, where prev was zeroed anyway.
    out[w].cycles = now.cycles - std::min(prev.cycles, now.cycles);
    out[w].instructions =
        now.instructions - std::min(prev.instructions, now.instructions);
    out[w].cache_misses =
        now.cache_misses - std::min(prev.cache_misses, now.cache_misses);
    out[w].context_switches =
        now.context_switches -
        std::min(prev.context_switches, now.context_switches);
    totals_[w].cycles += out[w].cycles;
    totals_[w].instructions += out[w].instructions;
    totals_[w].cache_misses += out[w].cache_misses;
    totals_[w].context_switches += out[w].context_switches;
    prev = now;
  }
  return true;
#else
  return false;
#endif
}

// ---- CycleProfiler ----

CycleProfiler::CycleProfiler(const ProfilerConfig& cfg,
                             std::vector<std::vector<std::int32_t>> preds,
                             double deadline_us,
                             support::MetricsRegistry* registry,
                             support::EventJournal* journal)
    : cfg_(cfg),
      deadline_us_(deadline_us),
      analyzer_(std::move(preds)),
      tracker_(kBlameTopK, kBaselineAlpha),
      journal_(journal) {
  node_hw_.assign(analyzer_.node_count(), NodeHw{});
  if (registry != nullptr) {
    have_metrics_ = true;
    m_cycles_ = registry->counter("djstar_attrib_cycles_total",
                                  "Cycles run through the attribution "
                                  "pipeline");
    m_reports_ = registry->counter("djstar_attrib_blame_reports_total",
                                   "Ranked blame reports emitted on "
                                   "deadline misses");
    g_cp_last_us_ = registry->gauge(
        "djstar_attrib_cp_last_us",
        "Realized critical-path length of the last attributed cycle (us)");
    h_cp_run_us_ = registry->histogram(
        "djstar_attrib_cp_run_us",
        "Critical-path time spent executing nodes per cycle (us)",
        kCpBounds);
    h_cp_wait_us_ = registry->histogram(
        "djstar_attrib_cp_wait_us",
        "Critical-path time spent waiting (steal-idle/barrier/overhead) "
        "per cycle (us)",
        kCpBounds);
  }
}

const support::attrib::CycleAttribution& CycleProfiler::on_cycle(
    std::span<const support::TraceSpan> spans, bool missed,
    std::uint64_t cycle) {
  const auto& at = analyzer_.analyze(spans, cycle);
  ++cycles_profiled_;
  if (have_metrics_) {
    m_cycles_.inc();
    g_cp_last_us_.set(at.makespan_us);
    if (!at.empty()) {
      h_cp_run_us_.record(at.cp_run_us);
      h_cp_wait_us_.record(at.cp_wait_us);
    }
  }
  if (!at.empty()) {
    cp_ewma_us_ = cp_ewma_us_ <= 0.0
                      ? at.makespan_us
                      : (1.0 - kBaselineAlpha) * cp_ewma_us_ +
                            kBaselineAlpha * at.makespan_us;
  }

  // Hardware attribution: distribute each worker's counter delta over
  // its kRun spans proportionally to duration.
  if (hw_ != nullptr && hw_->available() && hw_->sample(hw_delta_)) {
    std::size_t workers = hw_delta_.size();
    for (const support::TraceSpan& s : spans) {
      workers = std::max<std::size_t>(workers, s.thread + 1);
    }
    worker_run_us_.assign(workers, 0.0);
    for (const support::TraceSpan& s : spans) {
      if (s.kind == support::SpanKind::kRun) {
        worker_run_us_[s.thread] += s.duration_us();
      }
    }
    for (const support::TraceSpan& s : spans) {
      if (s.kind != support::SpanKind::kRun || s.node < 0 ||
          static_cast<std::size_t>(s.node) >= node_hw_.size() ||
          s.thread >= hw_delta_.size()) {
        continue;
      }
      const double total = worker_run_us_[s.thread];
      if (total <= 0.0) continue;
      const double share = s.duration_us() / total;
      const HwCounters& d = hw_delta_[s.thread];
      NodeHw& n = node_hw_[static_cast<std::size_t>(s.node)];
      n.cycles += share * static_cast<double>(d.cycles);
      n.instructions += share * static_cast<double>(d.instructions);
      n.cache_misses += share * static_cast<double>(d.cache_misses);
      n.context_switches += share * static_cast<double>(d.context_switches);
      ++n.samples;
    }
  }

  const auto& rep = tracker_.on_cycle(at, spans, missed, deadline_us_);
  if (missed) {
    if (have_metrics_) m_reports_.inc();
    if (journal_ != nullptr) {
      const std::int64_t top_node = rep.nodes.empty() ? -1 : rep.nodes[0].node;
      const std::int64_t top_worker =
          rep.nodes.empty() ? -1 : rep.nodes[0].worker;
      journal_->push(support::EventKind::kBlameReport, cycle, top_node,
                     top_worker, at.cp_wait_us);
      for (const auto& e : rep.nodes) {
        journal_->push(support::EventKind::kBlame, cycle, e.node, e.worker,
                       e.delta_us);
      }
    }
  }
  return at;
}

void CycleProfiler::append_attribution_json(std::string& out) const {
  out += "{\"mode\":\"";
  out += to_string(cfg_.mode);
  out += "\",";
  append_u(out, "cycles_profiled", cycles_profiled_);
  out += ',';
  append_f(out, "cp_ewma_us", cp_ewma_us_);
  out += ',';
  append_f(out, "deadline_us", deadline_us_);
  out += ",\"attribution\":";
  support::attrib::append_json(out, analyzer_.result());
  out += ",\"blame\":";
  support::attrib::append_json(out, tracker_.last());
  out += '}';
}

std::string CycleProfiler::attribution_json() const {
  std::string out;
  out.reserve(2048);
  append_attribution_json(out);
  return out;
}

void CycleProfiler::append_profile_json(std::string& out) const {
  out += "{\"mode\":\"";
  out += to_string(cfg_.mode);
  out += "\",\"hw_available\":";
  out += (hw_ != nullptr && hw_->available()) ? "true" : "false";
  out += ',';
  append_u(out, "cycles_profiled", cycles_profiled_);
  out += ",\"workers\":[";
  if (hw_ != nullptr) {
    const auto& totals = hw_->totals();
    for (std::size_t w = 0; w < totals.size(); ++w) {
      if (w) out += ',';
      out += '{';
      append_u(out, "cycles", totals[w].cycles);
      out += ',';
      append_u(out, "instructions", totals[w].instructions);
      out += ',';
      append_u(out, "cache_misses", totals[w].cache_misses);
      out += ',';
      append_u(out, "context_switches", totals[w].context_switches);
      out += '}';
    }
  }
  out += "],\"nodes\":[";
  bool first = true;
  for (std::size_t n = 0; n < node_hw_.size(); ++n) {
    const double baseline =
        tracker_.node_baseline_us(static_cast<std::int32_t>(n));
    const NodeHw& h = node_hw_[n];
    if (baseline <= 0.0 && h.samples == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '{';
    append_u(out, "node", n);
    out += ',';
    append_f(out, "baseline_us", baseline);
    out += ',';
    append_f(out, "hw_cycles", h.cycles);
    out += ',';
    append_f(out, "hw_instructions", h.instructions);
    out += ',';
    append_f(out, "hw_cache_misses", h.cache_misses);
    out += ',';
    append_f(out, "hw_context_switches", h.context_switches);
    out += ',';
    append_u(out, "hw_samples", h.samples);
    out += '}';
  }
  out += "]}";
}

std::string CycleProfiler::profile_json() const {
  std::string out;
  out.reserve(1024);
  append_profile_json(out);
  return out;
}

std::vector<std::vector<std::int32_t>> predecessor_lists(
    const core::TaskGraph& g) {
  std::vector<std::vector<std::int32_t>> preds(g.node_count());
  for (core::NodeId n = 0; n < g.node_count(); ++n) {
    const auto ps = g.predecessors(n);
    preds[n].assign(ps.begin(), ps.end());
    std::sort(preds[n].begin(), preds[n].end());
  }
  return preds;
}

}  // namespace djstar::engine
