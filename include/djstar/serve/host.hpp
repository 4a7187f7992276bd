// djstar/serve/host.hpp
// The multi-session engine host: one shared worker pool, a two-level
// scheduler, deadline-aware admission control, and load shedding.
//
// Level 1 (cycle-level, this class): a session dispatcher. Each fleet
// tick covers one minimum-deadline window; sessions whose next packet
// deadline falls inside the window are dispatched in EDF order (absolute
// deadline, then QoS rank, then id — fully deterministic). Dispatch is
// non-preemptive: a running graph is never interrupted, which is exactly
// why admission is tested up front (Kermia, arXiv:1301.4800).
//
// Level 2 (node-level): each dispatched session runs its DAG on the
// host's shared core::Team through a hosted WorkStealingExecutor
// (external submission — see core/team.hpp). One graph runs at a time
// across the full pool; per-session arenas mean sessions never share
// mutable state.
//
// Admission: serve/admission.hpp — density test sum(C/D) against a
// utilization bound, C from the He-et-al. DAG response-time bound or,
// after recalibrate(), from measured DeadlineMonitor p99s. Decisions are
// a pure function of the submission sequence, so replays reproduce the
// admission log verdict-for-verdict.
//
// Overload: when `trip_ticks` consecutive ticks overrun their budget,
// the handler walks the per-session degradation ladders and sheds —
// besteffort first (degrade all one rung; once all are at the floor,
// evict the youngest), then standard, never realtime. After a shed,
// admissions from the parked queue hold off for a few ticks so the
// fleet cannot thrash (shed/admit/shed).
//
// Threading: submit()/close()/session_state() are thread-safe (control
// plane); run_fleet_cycle() and the introspection calls below it belong
// to one data-plane thread. Control commands take effect at the next
// tick boundary, in arrival order.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "djstar/core/health.hpp"
#include "djstar/core/team.hpp"
#include "djstar/core/work_stealing.hpp"
#include "djstar/engine/profiler.hpp"
#include "djstar/engine/supervisor.hpp"
#include "djstar/serve/admission.hpp"
#include "djstar/serve/breaker.hpp"
#include "djstar/serve/qos.hpp"
#include "djstar/serve/session.hpp"
#include "djstar/serve/stats.hpp"
#include "djstar/support/journal.hpp"
#include "djstar/support/metrics.hpp"
#include "djstar/support/slo.hpp"
#include "djstar/support/trace.hpp"
#include "djstar/support/tsdb.hpp"

namespace djstar::serve {

/// Overload-handling policy.
struct OverloadConfig {
  /// Consecutive over-budget ticks (elapsed > budget) before the shed
  /// handler fires.
  unsigned trip_ticks = 3;
  /// Allow shedding standard sessions once no besteffort remain.
  bool shed_standard = true;
};

/// Host construction parameters.
struct HostConfig {
  /// Worker-pool width; 0 = auto (DJSTAR_THREADS / hardware concurrency,
  /// hardened via core::resolve_thread_count).
  unsigned threads = 0;
  core::WorkStealingOptions ws{};
  /// Upper bound on the tick length: each tick lasts the minimum of this
  /// and every active session's deadline (it alone sets the tick when no
  /// session is active).
  double default_tick_us = audio::kDeadlineUs;
  AdmissionConfig admission{};
  OverloadConfig overload{};
  /// Per-session supervision template (deadline overwritten per
  /// session; the watchdog is forced off — one thread per session does
  /// not scale).
  engine::SupervisorConfig supervisor{};
  /// Recorded for replay bookkeeping; the host itself is deterministic
  /// given the submission sequence, the seed tags the run (it also seeds
  /// the breakers' probe jitter).
  std::uint64_t seed = 1;
  /// Per-session circuit breaker (serve/breaker.hpp, DESIGN.md §12);
  /// disabled by default. Overridden by DJSTAR_BREAKER=<K>,<backoff_ms>
  /// when set.
  BreakerConfig breaker{};
  /// Worker self-healing for the shared pool (core/health.hpp);
  /// DJSTAR_HEAL=off|quarantine|respawn overrides the mode.
  core::TeamHealConfig heal{};
  /// Per-session attribution profiler template (engine/profiler.hpp,
  /// DESIGN.md §14); mode overridden by DJSTAR_PROF=off|attrib|attrib+hw
  /// when set. mode != kOff gives every session a CycleProfiler sharing
  /// the host registry/journal, and (attrib+hw) arms one host-level
  /// HwSampler over the shared pool, sampled once per tick.
  engine::ProfilerConfig profiler{};
  /// SLO engine (support/slo + support/tsdb, DESIGN.md §15): one
  /// time-series store on the fleet's virtual clock, with burn-rate
  /// trackers per session, per QoS class, and fleet-wide. enabled/spec
  /// overridden by DJSTAR_SLO=off|on[,<miss_ratio>[,<p99_us>]] when set.
  support::SloConfig slo{};
};

/// Report of one fleet tick.
struct FleetTick {
  std::uint64_t index = 0;
  double budget_us = 0;    ///< window length (min active deadline)
  double elapsed_us = 0;   ///< wall time spent running due sessions
  unsigned sessions_run = 0;
  unsigned misses = 0;     ///< sessions their monitor judged late
  unsigned shed = 0;       ///< sessions evicted by the overload handler
  unsigned degraded = 0;   ///< force_degrade() rungs walked this tick
  bool overloaded = false;
};

class EngineHost {
 public:
  explicit EngineHost(HostConfig cfg = {});
  ~EngineHost();

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  // ---- control plane (thread-safe) ----

  /// Submit a session for admission. Returns its id immediately; the
  /// verdict lands at the next tick boundary (state kQueued until then).
  SessionId submit(SessionSpec spec);

  /// Tear down a session (active or queued). Takes effect at the next
  /// tick boundary; unknown ids are ignored.
  void close(SessionId id);

  /// Lifecycle state of any session ever submitted.
  SessionState session_state(SessionId id) const;

  // ---- data plane (one thread) ----

  /// Run one fleet tick: drain control commands, admit, dispatch due
  /// sessions in EDF order, account deadlines, handle overload.
  FleetTick run_fleet_cycle();
  void run_fleet_cycles(std::size_t n);

  /// Observer invoked on the data-plane thread at the end of every
  /// run_fleet_cycle(), after all accounting for the tick has landed.
  /// Embedders (e.g. the net::Server fan-out) use it to read per-tick
  /// state — session outputs, the admission log — without wrapping the
  /// dispatch loop. Data-plane introspection calls are safe inside it;
  /// it must never block on external I/O (the overload detector would
  /// charge the stall to the next tick). Set before the data-plane loop
  /// starts, or from the data-plane thread itself.
  using TickObserver = std::function<void(const FleetTick&)>;
  void set_tick_observer(TickObserver fn) { tick_observer_ = std::move(fn); }

  unsigned threads() const noexcept { return threads_; }
  /// The configuration in force (environment overrides applied).
  const HostConfig& config() const noexcept { return cfg_; }
  std::size_t active_sessions() const noexcept { return active_.size(); }
  std::size_t queued_sessions() const noexcept { return queued_.size(); }
  /// Sessions currently parked by their circuit breaker.
  std::size_t tripped_sessions() const noexcept { return tripped_.size(); }
  /// The shared worker pool (self-healing tests poke its health board).
  core::Team& team() noexcept { return team_; }
  double active_density() const noexcept { return active_density_; }
  std::uint64_t ticks() const noexcept { return tick_; }

  /// The admission log, in decision order (replayable).
  const std::vector<AdmissionRecord>& admission_log() const noexcept {
    return admission_log_;
  }

  /// Fleet-wide aggregation (live + departed sessions).
  FleetStats stats() const;

  /// Pointer to a live session (nullptr when not active). Borrowed;
  /// valid until the next run_fleet_cycle().
  const Session* session(SessionId id) const noexcept;
  /// Mutable variant, data-plane only (fault-injection tests flip a
  /// live session's fault plan between ticks).
  Session* session(SessionId id) noexcept;

  /// Replace every active session's cost estimate with its measured
  /// compute p99 (DeadlineMonitor) and re-derive the density sum. Makes
  /// later admissions measurement-driven — and no longer replayable
  /// against a cold start; call it deliberately.
  void recalibrate();

  // ---- telemetry ----

  /// Fleet metrics registry. stats() reads its lifecycle counts from the
  /// djstar_fleet_* counters, and the cycle and miss counters take each
  /// session's monitor verdict, so a scrape and stats() agree on every
  /// lifecycle/service count. Snapshots are thread-safe.
  support::MetricsRegistry& metrics() noexcept { return registry_; }
  const support::MetricsRegistry& metrics() const noexcept {
    return registry_;
  }

  /// Structured event journal: admission verdicts, parks, sheds,
  /// overload trips, session closes, per-session deadline misses. The
  /// data plane produces; drain from any one consumer thread.
  support::EventJournal& journal() noexcept { return journal_; }

  /// Write the Prometheus text exposition of the fleet metrics to
  /// `path`. Thread-safe. Returns false on I/O failure.
  bool write_metrics(const std::string& path) const;

  /// Turn on span capture for current and future sessions: each
  /// session's own span ring (Session::enable_flight) keeps
  /// `spans_per_thread` spans per pool worker, at least one whole cycle.
  /// write_chrome_trace() and SLO incident dumps read the rings.
  void enable_flight(std::size_t spans_per_thread = 2048);

  /// Start a background exporter rewriting `path` every `period_ms`
  /// (the constructor starts one automatically when DJSTAR_METRICS=
  /// <path> is set). Restarts replace the previous exporter.
  void start_metrics_exporter(const std::string& path,
                              double period_ms = 1000.0);
  void stop_metrics_exporter();

  // ---- attribution / profiling (DESIGN.md §14) ----

  /// True when cfg.profiler (or DJSTAR_PROF) enabled attribution.
  bool profiler_enabled() const noexcept {
    return cfg_.profiler.mode != engine::ProfMode::kOff;
  }

  /// Cached JSON for the net layer's GET /debug/attribution: per active
  /// session, the latest realized-critical-path decomposition and (after
  /// a miss) the ranked blame report. Refreshed at the end of every tick
  /// on the data plane; reading is thread-safe (mutex-guarded copy) so
  /// the reactor thread can serve it without touching host state.
  std::string debug_attribution_json() const;
  /// Cached JSON for GET /debug/profile: profiler mode, hw-counter
  /// availability and per-worker totals, per-session cycle counts, cp
  /// EWMAs, and a windowed (since previous tick refresh) latency view
  /// computed via Histogram::delta_since.
  std::string debug_profile_json() const;

  /// Departed sessions whose spans write_chrome_trace() keeps: the most
  /// recent ones, so a host that churns sessions holds bounded memory.
  static constexpr std::size_t kRetiredTraces = 32;

  /// Export the fleet schedule as Chrome trace_event JSON: one pid per
  /// session — the live ones and, after enable_flight(), the last
  /// kRetiredTraces sessions to depart (closed, shed or tripped) — one
  /// tid per worker, each session's retained cycles stitched on its own
  /// deadline. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  // ---- SLO engine (DESIGN.md §15) ----

  /// True when cfg.slo (or DJSTAR_SLO) enabled the SLO engine.
  bool slo_enabled() const noexcept { return tsdb_ != nullptr; }
  /// The fleet's time-series store (nullptr when disabled). Driven by
  /// the virtual fleet clock, so SLO state is deterministic per tick.
  support::TimeSeriesStore* slo_store() noexcept { return tsdb_.get(); }
  /// Trackers (nullptr when disabled / unknown id). Data-plane only.
  const support::SloTracker* slo_fleet() const noexcept {
    return slo_fleet_.get();
  }
  const support::SloTracker* slo_session(SessionId id) const;
  /// Page-level incidents that requested a flight dump (each dumped at
  /// most one trace; cooldown-free because pages are hysteresis-gated).
  std::uint64_t slo_incident_dumps() const noexcept {
    return slo_incident_dumps_;
  }

  /// Cached JSON for GET /debug/slo: per-scope alert state, error
  /// budget, and burn rates (fleet, per QoS class, per session).
  /// Refreshed at the end of every tick on the data plane; reading is
  /// thread-safe (mutex-guarded copy).
  std::string debug_slo_json() const;
  /// Reader-side render for GET /debug/timeseries: the named series'
  /// newest `window` sealed windows (0 = all retained). Thread-safe —
  /// the store snapshots under its own mutex; the engine thread never
  /// renders JSON for a socket.
  std::string debug_timeseries_json(std::string_view series,
                                    std::size_t window) const;

 private:
  struct Command {
    enum class Kind : std::uint8_t { kSubmit, kClose } kind;
    SessionId id = kInvalidSession;
    SessionSpec spec;  // kSubmit only
    /// Wall-clock submit() time (kSubmit only): the start of the
    /// admission-wait stage in the latency decomposition.
    support::Clock::time_point submitted_at{};
  };

  /// Spec + control snapshot of a session parked by its breaker; the
  /// DSP state survives in SessionSpec::arena.
  struct TrippedEntry {
    SessionId id = kInvalidSession;
    SessionSpec spec;
    SessionSnapshot snap;
  };

  void drain_commands();
  void refresh_debug_json();
  void refresh_slo_json();
  void attach_slo(SessionId id);
  void detach_slo(SessionId id);
  void retire_trace(const Session& s);
  void evaluate_slo();
  void on_slo_transition(support::SloTracker& tr, std::int64_t scope,
                         support::SloAlertState prev, Session* session);
  std::unique_ptr<Session> build_session(SessionId id, SessionSpec spec);
  void decide_admission(std::unique_ptr<Session> s);
  void activate(std::unique_ptr<Session> s);
  void try_admit_queued();
  void remove_session(SessionId id, SessionState final_state);
  void handle_overload(FleetTick& t);
  void trip_session(SessionId id);
  void probe_tripped();
  void set_state(SessionId id, SessionState s);

  HostConfig cfg_;
  unsigned threads_;
  core::Team team_;  // shared pool, external-submission mode
  AdmissionController admission_;

  // Control plane.
  mutable std::mutex cmd_mutex_;
  std::vector<Command> commands_;
  SessionId next_id_ = 1;
  mutable std::mutex state_mutex_;
  std::unordered_map<SessionId, SessionState> states_;

  // Data plane.
  std::vector<std::unique_ptr<Session>> active_;
  std::deque<std::unique_ptr<Session>> queued_;
  double active_density_ = 0;
  double fleet_now_us_ = 0;
  std::uint64_t tick_ = 0;
  unsigned overload_streak_ = 0;
  unsigned admit_holdoff_ = 0;
  ServeStats stats_;
  std::vector<AdmissionRecord> admission_log_;
  TickObserver tick_observer_;

  // Circuit breakers (cfg_.breaker.enabled() only). A session's breaker
  // survives trip -> restore so the backoff keeps escalating across
  // repeated trips; it is erased only when the owner truly closes the
  // session.
  std::unordered_map<SessionId, CircuitBreaker> breakers_;
  std::vector<TrippedEntry> tripped_;

  // Telemetry. The djstar_fleet_* counters are the lifecycle counts that
  // stats() reports; gauges refresh per tick.
  support::MetricsRegistry registry_;
  support::EventJournal journal_{4096};
  support::Counter m_ticks_;
  support::Counter m_submitted_;
  support::Counter m_admitted_;
  support::Counter m_queued_;
  support::Counter m_rejected_;
  support::Counter m_shed_;
  support::Counter m_closed_;
  support::Counter m_overloads_;
  support::Counter m_cycles_;
  support::Counter m_misses_;
  support::Counter m_degrade_steps_;
  support::Counter m_tripped_;
  support::Counter m_restored_;
  support::Gauge g_active_sessions_;
  support::Gauge g_queued_sessions_;
  support::Gauge g_active_density_;

  // Stage latency decomposition (DESIGN.md §14): always-on, per QoS
  // class (the registry has no label support, so the class is a name
  // suffix). admission-wait = submit() to activation (wall), edf-queue =
  // dispatch delay inside the tick, execute = compute after dispatch.
  // The net layer adds djstar_stage_net_flush_us_<qos> on top.
  std::array<support::HistogramMetric, kQoSCount> h_stage_admission_;
  std::array<support::HistogramMetric, kQoSCount> h_stage_queue_;
  std::array<support::HistogramMetric, kQoSCount> h_stage_execute_;

  // Attribution (cfg_.profiler.mode != kOff). The hw sampler belongs to
  // the host — sessions share the pool, so per-session hw attribution
  // would double-count; it is sampled once per tick instead.
  engine::HwSampler hw_sampler_;
  bool hw_armed_ = false;
  std::vector<engine::HwCounters> hw_tick_;  // last tick's deltas
  // Debug JSON cache: written by the data plane at the end of each tick,
  // read by the net reactor. Strings are swapped under the mutex.
  mutable std::mutex debug_mutex_;
  std::string debug_attrib_json_;
  std::string debug_profile_json_;
  std::string debug_scratch_;
  // Previous-tick latency snapshots for Histogram::delta_since windows.
  std::unordered_map<SessionId, support::Histogram> prev_latency_;

  // SLO engine (cfg_.slo.enabled only, DESIGN.md §15). The store runs on
  // the virtual fleet clock (fleet_now_us_); trackers own series inside
  // it, so they are declared after it (destroyed first). Per-session
  // trackers come and go with activation/removal; per-QoS and fleet
  // trackers live as long as the host.
  std::unique_ptr<support::TimeSeriesStore> tsdb_;
  std::unique_ptr<support::SloTracker> slo_fleet_;
  std::array<std::unique_ptr<support::SloTracker>, kQoSCount> slo_qos_;
  std::unordered_map<SessionId, std::unique_ptr<support::SloTracker>>
      slo_sessions_;
  support::TimeSeriesStore::SeriesRef ts_tick_elapsed_;
  support::Counter m_slo_alerts_;
  support::Counter m_slo_recovers_;
  support::Gauge g_slo_budget_;
  support::Gauge g_slo_state_;
  std::array<support::Gauge, kQoSCount> g_slo_qos_budget_;
  std::array<support::Gauge, kQoSCount> g_slo_qos_state_;
  support::Gauge g_uptime_;
  std::uint64_t slo_incident_dumps_ = 0;
  /// Tick of the last page-triggered dump: several scopes paging at the
  /// same seal (session + its class + the fleet) are one incident.
  std::uint64_t slo_dump_tick_ = ~std::uint64_t{0};
  std::string debug_slo_json_;

  // Metrics exporter thread (snapshot + file write only; never touches
  // host state).
  std::thread exporter_;
  std::mutex exporter_mutex_;
  std::condition_variable exporter_cv_;
  bool exporter_stop_ = false;
  /// Span-ring size per worker for every session, once enable_flight()
  /// ran.
  std::optional<std::size_t> flight_spans_;
  /// Spans of the last kRetiredTraces departed sessions, kept so a
  /// fleet trace still shows sessions that closed or were shed mid-run.
  std::deque<support::TraceProcess> retired_traces_;
  /// run_fleet_cycle()'s EDF schedule, reused so a tick does not allocate.
  std::vector<Session*> due_;
};

}  // namespace djstar::serve
