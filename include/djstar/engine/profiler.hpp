// djstar/engine/profiler.hpp
// Always-on cycle profiler (DESIGN.md §14): realized-critical-path
// attribution, ranked deadline-miss blame, and optional per-worker
// hardware counters, driven between cycles by AudioEngine (and, per
// hosted session, by serve::EngineHost).
//
// Division of labour: support/attrib owns the path reconstruction and
// blame math over raw spans; this layer adapts a concrete graph into
// the analyzer's predecessor shape, feeds it each cycle's spans from its
// owner's span ring, keeps an EWMA of the realized critical path for the
// profile report, publishes djstar_attrib_* metrics, emits
// kBlameReport/kBlame journal events on every miss, and renders the JSON
// served by the net layer's /debug/attribution and /debug/profile
// endpoints.
//
// Hardware counters (ProfMode::kAttribHw): one perf_event_open fd per
// (worker tid, event) for cycles / instructions / cache-misses /
// context-switches. The syscall is unavailable in many environments
// (CI containers, perf_event_paranoid, non-Linux) — open() then leaves
// the sampler unavailable and every later call is a cheap no-op, so
// attribution itself never depends on perf_event working.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "djstar/core/graph.hpp"
#include "djstar/support/attrib.hpp"
#include "djstar/support/journal.hpp"
#include "djstar/support/metrics.hpp"
#include "djstar/support/trace.hpp"

namespace djstar::engine {

/// What the profiler records. kAttrib is designed to stay always-on
/// (bench/obs_overhead gates it under 2% of APC time); kAttribHw adds
/// per-worker perf_event counters when the kernel allows them.
enum class ProfMode : std::uint8_t {
  kOff = 0,
  kAttrib,    ///< critical-path + blame attribution
  kAttribHw,  ///< attribution + hardware counters
};

std::string_view to_string(ProfMode m) noexcept;
/// "off" | "attrib" | "attrib+hw" -> mode; nullopt on anything else.
std::optional<ProfMode> parse_prof_mode(std::string_view name) noexcept;

/// Profiler construction knobs (EngineConfig::profiler).
struct ProfilerConfig {
  ProfMode mode = ProfMode::kOff;
};

/// One worker's hardware-counter deltas for one cycle.
struct HwCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t context_switches = 0;
};

/// Per-worker perf_event sampling with graceful degradation: when the
/// syscall is unavailable, available() is false and sample() costs one
/// branch. Single-threaded use from the cycle driver.
class HwSampler {
 public:
  HwSampler() = default;
  ~HwSampler();
  HwSampler(const HwSampler&) = delete;
  HwSampler& operator=(const HwSampler&) = delete;

  /// Open counter fds for each worker tid (tid 0 entries are skipped).
  /// Returns true when at least one worker's counters armed. Safe to
  /// call when perf_event_open is unavailable: returns false.
  bool open(std::span<const std::int32_t> tids);
  void close() noexcept;

  bool available() const noexcept { return available_; }
  std::size_t workers() const noexcept { return fds_.size(); }

  /// Read per-worker counter deltas since the previous sample() into
  /// `out` (resized to workers()). Returns false (out zeroed) when
  /// unavailable.
  bool sample(std::vector<HwCounters>& out);

  /// Cumulative counters per worker since open().
  const std::vector<HwCounters>& totals() const noexcept { return totals_; }

  /// gettid() of the calling thread (0 on platforms without it) — for
  /// single-threaded executors with no core::Team to ask.
  static std::int32_t self_tid() noexcept;

 private:
  struct WorkerFds {
    std::array<int, 4> fd = {-1, -1, -1, -1};
  };
  std::vector<WorkerFds> fds_;
  std::vector<HwCounters> last_;
  std::vector<HwCounters> totals_;
  bool available_ = false;
};

/// Per-node hardware cost, attributed through the span timeline: each
/// cycle's per-worker counter delta is distributed over that worker's
/// kRun spans proportionally to their duration.
struct NodeHw {
  double cycles = 0;
  double instructions = 0;
  double cache_misses = 0;
  double context_switches = 0;
  std::uint64_t samples = 0;
};

/// The per-graph attribution driver. One instance per AudioEngine (and
/// one per hosted serve::Session). All calls run between cycles on the
/// owner's cycle-driving thread.
class CycleProfiler {
 public:
  /// `preds[n]` = graph predecessors of node n (adapt a TaskGraph via
  /// predecessor_lists). `registry`/`journal` may be null; metric
  /// names are fixed, so several profilers sharing one registry share
  /// the same djstar_attrib_* series (register-or-fetch semantics).
  CycleProfiler(const ProfilerConfig& cfg,
                std::vector<std::vector<std::int32_t>> preds,
                double deadline_us, support::MetricsRegistry* registry,
                support::EventJournal* journal);

  /// Borrow a sampler (owned by the engine; null detaches). Sampled
  /// once per on_cycle; deltas are distributed over the cycle's spans.
  void set_hw(HwSampler* hw) noexcept { hw_ = hw; }
  HwSampler* hw() const noexcept { return hw_; }

  /// Attribute one finished cycle. `missed` is the verdict the owner's
  /// DeadlineMonitor::add returned for it, so blame reports and miss
  /// counters agree exactly.
  const support::attrib::CycleAttribution& on_cycle(
      std::span<const support::TraceSpan> spans, bool missed,
      std::uint64_t cycle);

  const ProfilerConfig& config() const noexcept { return cfg_; }
  const support::attrib::CycleAttribution& attribution() const noexcept {
    return analyzer_.result();
  }
  const support::attrib::BlameReport& last_blame() const noexcept {
    return tracker_.last();
  }
  std::uint64_t blame_reports() const noexcept { return tracker_.reports(); }
  std::uint64_t cycles_profiled() const noexcept { return cycles_profiled_; }

  /// EWMA of the realized critical-path length (us); 0 before the first
  /// cycle.
  double cp_ewma_us() const noexcept { return cp_ewma_us_; }

  const std::vector<NodeHw>& node_hw() const noexcept { return node_hw_; }
  const std::vector<HwCounters>& last_hw() const noexcept { return hw_delta_; }

  /// {"attribution":{...},"blame":{...}} for /debug/attribution.
  void append_attribution_json(std::string& out) const;
  std::string attribution_json() const;
  /// Mode, hw availability, per-worker counters, per-node EWMA + hw
  /// table for /debug/profile.
  void append_profile_json(std::string& out) const;
  std::string profile_json() const;

 private:
  ProfilerConfig cfg_;
  double deadline_us_;
  support::attrib::CriticalPathAnalyzer analyzer_;
  support::attrib::BlameTracker tracker_;
  support::EventJournal* journal_;
  HwSampler* hw_ = nullptr;

  double cp_ewma_us_ = 0;
  std::uint64_t cycles_profiled_ = 0;

  std::vector<HwCounters> hw_delta_;
  std::vector<NodeHw> node_hw_;
  std::vector<double> worker_run_us_;  // scratch for hw distribution

  bool have_metrics_ = false;
  support::Counter m_cycles_;
  support::Counter m_reports_;
  support::Gauge g_cp_last_us_;
  support::HistogramMetric h_cp_run_us_;
  support::HistogramMetric h_cp_wait_us_;
};

/// `g`'s predecessor lists (TaskGraph::predecessors) in the analyzer's
/// shape, each in ascending node order.
std::vector<std::vector<std::int32_t>> predecessor_lists(
    const core::TaskGraph& g);

}  // namespace djstar::engine
