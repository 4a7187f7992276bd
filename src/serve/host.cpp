#include "djstar/serve/host.hpp"

#include "djstar/core/thread_count.hpp"
#include "djstar/engine/engine.hpp"
#include "djstar/engine/telemetry.hpp"
#include "djstar/support/build_info.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/time.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace djstar::serve {
namespace {

// Environment overrides resolved before the member-init list runs so the
// shared team is constructed with the final heal config.
HostConfig with_env_overrides(HostConfig cfg) {
  engine::apply_env_overrides(cfg.heal, cfg.profiler, cfg.slo);
  if (auto v = support::env::get("DJSTAR_BREAKER")) {
    cfg.breaker = BreakerConfig::parse(*v);
  }
  return cfg;
}

// Shared bounds for the djstar_stage_* histograms (us). Wide enough for
// admission waits spanning several parked ticks at the top end.
constexpr double kStageBounds[] = {10,   25,   50,    100,   250,  500,
                                   1000, 2500, 5000,  10000, 25000, 100000};

// One Chrome-trace process per session: the last `cycles` cycles its span
// ring holds (0 = all of them), stitched on the session's own deadline.
support::TraceProcess session_trace(const Session& s,
                                    std::uint64_t cycles = 0) {
  const support::FlightRecorder& f = s.flight();
  return {s.name(), static_cast<std::uint32_t>(s.id()),
          f.collect_last(cycles != 0 ? cycles : f.cycle(), s.deadline_us())};
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
}

}  // namespace

EngineHost::EngineHost(HostConfig cfg)
    : cfg_(with_env_overrides(std::move(cfg))),
      threads_(core::resolve_thread_count(cfg_.threads)),
      team_(threads_, cfg_.heal),
      admission_(cfg_.admission),
      m_ticks_(registry_.counter("djstar_fleet_ticks_total",
                                 "Fleet ticks executed")),
      m_submitted_(registry_.counter("djstar_fleet_sessions_submitted_total",
                                     "Sessions submitted for admission")),
      m_admitted_(registry_.counter("djstar_fleet_sessions_admitted_total",
                                    "Sessions admitted (incl. from queue)")),
      m_queued_(registry_.counter("djstar_fleet_sessions_queued_total",
                                  "Admission verdicts parking a session")),
      m_rejected_(registry_.counter("djstar_fleet_sessions_rejected_total",
                                    "Sessions rejected at admission")),
      m_shed_(registry_.counter("djstar_fleet_sessions_shed_total",
                                "Sessions evicted by the overload handler")),
      m_closed_(registry_.counter("djstar_fleet_sessions_closed_total",
                                  "Active sessions closed by their owner")),
      m_overloads_(registry_.counter("djstar_fleet_overloads_total",
                                     "Overload-handler trips")),
      m_cycles_(registry_.counter("djstar_fleet_cycles_total",
                                  "Session cycles dispatched")),
      m_misses_(registry_.counter(
          "djstar_fleet_deadline_misses_total",
          "Session cycles completing past their deadline")),
      m_degrade_steps_(registry_.counter(
          "djstar_fleet_degrade_steps_total",
          "Ladder rungs force-walked by the overload handler")),
      m_tripped_(registry_.counter(
          "djstar_fleet_sessions_tripped_total",
          "Sessions torn down by their circuit breaker")),
      m_restored_(registry_.counter(
          "djstar_fleet_sessions_restored_total",
          "Tripped sessions restored after an admitted probe")),
      g_active_sessions_(registry_.gauge("djstar_fleet_active_sessions",
                                         "Currently active sessions")),
      g_queued_sessions_(registry_.gauge("djstar_fleet_queued_sessions",
                                         "Currently parked sessions")),
      g_active_density_(registry_.gauge(
          "djstar_fleet_active_density",
          "Sum of admitted C/D densities (utilization)")) {
  cfg_.threads = threads_;
  // Stage latency decomposition (always-on; per-QoS name suffix because
  // the registry has no label support).
  for (unsigned q = 0; q < kQoSCount; ++q) {
    const char* qn = to_string(static_cast<QoS>(q));
    const auto reg = [&](const char* stage, const char* help) {
      return registry_.histogram(
          std::string("djstar_stage_") + stage + "_us_" + qn, help,
          kStageBounds);
    };
    h_stage_admission_[q] =
        reg("admission_wait", "submit() to activation (wall us)");
    h_stage_queue_[q] =
        reg("edf_queue", "EDF dispatch delay inside the tick (us)");
    h_stage_execute_[q] =
        reg("execute", "Graph compute after dispatch (us)");
  }
  g_uptime_ = support::register_build_info(registry_);
  if (cfg_.slo.enabled) {
    tsdb_ = std::make_unique<support::TimeSeriesStore>(cfg_.slo.tsdb);
    if (!cfg_.slo.windows.valid()) {
      cfg_.slo.windows =
          support::SloWindows::sre_defaults(cfg_.slo.tsdb.window_us);
    }
    slo_fleet_ = std::make_unique<support::SloTracker>(
        *tsdb_, "fleet", cfg_.slo.spec, cfg_.slo.windows);
    for (unsigned q = 0; q < kQoSCount; ++q) {
      const char* qn = to_string(static_cast<QoS>(q));
      slo_qos_[q] = std::make_unique<support::SloTracker>(
          *tsdb_, std::string("qos_") + qn, cfg_.slo.spec, cfg_.slo.windows);
      g_slo_qos_budget_[q] = registry_.gauge(
          std::string("djstar_slo_budget_remaining_") + qn,
          "Worst-objective error budget remaining over the slow window");
      g_slo_qos_state_[q] =
          registry_.gauge(std::string("djstar_slo_alert_state_") + qn,
                          "Alert state (0 ok, 1 warn, 2 page)");
      g_slo_qos_budget_[q].set(1.0);
    }
    ts_tick_elapsed_ = tsdb_->add_series("fleet_tick_us");
    m_slo_alerts_ = registry_.counter("djstar_slo_alerts_total",
                                      "SLO alert escalations, any scope");
    m_slo_recovers_ = registry_.counter(
        "djstar_slo_recovers_total", "SLO alert de-escalations, any scope");
    g_slo_budget_ = registry_.gauge(
        "djstar_slo_budget_remaining",
        "Fleet worst-objective error budget remaining over the slow window");
    g_slo_state_ = registry_.gauge(
        "djstar_slo_alert_state", "Fleet alert state (0 ok, 1 warn, 2 page)");
    g_slo_budget_.set(1.0);
  }
  if (auto path = support::env::get("DJSTAR_METRICS", "path")) {
    start_metrics_exporter(*path);
  }
}

EngineHost::~EngineHost() { stop_metrics_exporter(); }

// ---- control plane ------------------------------------------------------

SessionId EngineHost::submit(SessionSpec spec) {
  std::lock_guard lk(cmd_mutex_);
  const SessionId id = next_id_++;
  {
    std::lock_guard sl(state_mutex_);
    states_[id] = SessionState::kQueued;
  }
  Command c;
  c.kind = Command::Kind::kSubmit;
  c.id = id;
  c.spec = std::move(spec);
  c.submitted_at = support::now();
  commands_.push_back(std::move(c));
  return id;
}

void EngineHost::close(SessionId id) {
  std::lock_guard lk(cmd_mutex_);
  Command c;
  c.kind = Command::Kind::kClose;
  c.id = id;
  commands_.push_back(std::move(c));
}

SessionState EngineHost::session_state(SessionId id) const {
  std::lock_guard sl(state_mutex_);
  const auto it = states_.find(id);
  // Unknown ids (never submitted here) read as long gone.
  return it != states_.end() ? it->second : SessionState::kClosed;
}

void EngineHost::set_state(SessionId id, SessionState s) {
  std::lock_guard sl(state_mutex_);
  states_[id] = s;
}

// ---- admission ----------------------------------------------------------

void EngineHost::drain_commands() {
  std::vector<Command> cmds;
  {
    std::lock_guard lk(cmd_mutex_);
    cmds.swap(commands_);
  }
  for (Command& c : cmds) {
    if (c.kind == Command::Kind::kClose) {
      remove_session(c.id, SessionState::kClosed);
      continue;
    }
    m_submitted_.inc();
    std::unique_ptr<Session> s = build_session(c.id, std::move(c.spec));
    s->set_submitted_at(c.submitted_at);
    decide_admission(std::move(s));
  }
}

std::unique_ptr<Session> EngineHost::build_session(SessionId id,
                                                   SessionSpec spec) {
  core::ExecOptions exec;
  exec.heal = cfg_.heal;
  auto s = std::make_unique<Session>(id, std::move(spec), team_, exec,
                                     cfg_.ws, cfg_.supervisor);
  if (flight_spans_) s->enable_flight(*flight_spans_);
  if (profiler_enabled()) {
    // Sessions share the host registry (register-or-fetch: one
    // djstar_attrib_* family fleet-wide) and journal. HW stays host-level.
    engine::ProfilerConfig pcfg = cfg_.profiler;
    pcfg.mode = engine::ProfMode::kAttrib;
    s->enable_profiler(pcfg, &registry_, &journal_);
  }
  return s;
}

void EngineHost::decide_admission(std::unique_ptr<Session> s) {
  const double density = s->density();
  const AdmissionVerdict v = admission_.decide(
      density, active_density_, active_.size(), queued_.size());
  admission_log_.push_back({s->id(), v, active_density_ + density,
                            admission_.config().utilization_bound, tick_});
  switch (v) {
    case AdmissionVerdict::kAdmitted:
      activate(std::move(s));
      break;
    case AdmissionVerdict::kQueued: {
      const SessionId id = s->id();
      queued_.push_back(std::move(s));
      stats_.note_queued_depth(queued_.size());
      m_queued_.inc();
      journal_.push(support::EventKind::kQueuePark, tick_,
                    static_cast<std::int64_t>(id));
      break;
    }
    case AdmissionVerdict::kRejected:
      set_state(s->id(), SessionState::kRejected);
      m_rejected_.inc();
      journal_.push(support::EventKind::kReject, tick_,
                    static_cast<std::int64_t>(s->id()));
      break;
  }
}

void EngineHost::activate(std::unique_ptr<Session> s) {
  // Admission-wait stage closes here — covering queued ticks too. Probe
  // restores skip it (never stamped): a breaker park is not admission.
  if (s->submitted_at() != support::Clock::time_point{}) {
    h_stage_admission_[rank(s->qos())].record(
        support::elapsed_us(s->submitted_at(), support::now()));
  }
  active_density_ += s->density();
  s->set_next_due_us(fleet_now_us_ + s->deadline_us());
  if (cfg_.breaker.enabled()) {
    breakers_.try_emplace(s->id(), cfg_.breaker, cfg_.seed, s->id());
  }
  attach_slo(s->id());
  set_state(s->id(), SessionState::kActive);
  stats_.note_admitted(s->qos());
  m_admitted_.inc();
  journal_.push(support::EventKind::kAdmit, tick_,
                static_cast<std::int64_t>(s->id()),
                static_cast<std::int64_t>(rank(s->qos())), s->density());
  active_.push_back(std::move(s));
}

void EngineHost::try_admit_queued() {
  // FIFO: a blocked head blocks everything behind it — parked sessions
  // are admitted in submission order, never around each other.
  while (!queued_.empty()) {
    Session& head = *queued_.front();
    const AdmissionVerdict v = admission_.decide(
        head.density(), active_density_, active_.size(), queued_.size() - 1);
    if (v != AdmissionVerdict::kAdmitted) break;
    std::unique_ptr<Session> s = std::move(queued_.front());
    queued_.pop_front();
    admission_log_.push_back({s->id(), v, active_density_ + s->density(),
                              admission_.config().utilization_bound, tick_});
    activate(std::move(s));
  }
}

void EngineHost::remove_session(SessionId id, SessionState final_state) {
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if ((*it)->id() != id) continue;
    active_density_ = std::max(0.0, active_density_ - (*it)->density());
    stats_.retire(**it, final_state == SessionState::kShed);
    if (final_state == SessionState::kShed) {
      m_shed_.inc();
      journal_.push(support::EventKind::kShed, tick_,
                    static_cast<std::int64_t>(id));
    } else {
      m_closed_.inc();
      journal_.push(support::EventKind::kSessionClosed, tick_,
                    static_cast<std::int64_t>(id));
    }
    if (flight_spans_) retire_trace(**it);
    set_state(id, final_state);
    breakers_.erase(id);
    prev_latency_.erase(id);
    detach_slo(id);
    active_.erase(it);
    return;
  }
  for (auto it = queued_.begin(); it != queued_.end(); ++it) {
    if ((*it)->id() != id) continue;
    // Take the session out of the FIFO *before* finalizing anything:
    // finalizing first left the dead entry in the queue while the
    // queued-depth stat was read, so a close landing between verdicts
    // skewed note_queued_depth and could double-count the head.
    std::unique_ptr<Session> s = std::move(*it);
    queued_.erase(it);
    stats_.note_queued_depth(queued_.size());
    set_state(id, final_state);
    journal_.push(support::EventKind::kSessionClosed, tick_,
                  static_cast<std::int64_t>(id));
    breakers_.erase(id);
    return;
  }
  for (auto it = tripped_.begin(); it != tripped_.end(); ++it) {
    if (it->id != id) continue;
    // Already retired from stats at trip time; the owner close just
    // releases the parked spec and the breaker.
    tripped_.erase(it);
    set_state(id, final_state);
    journal_.push(support::EventKind::kSessionClosed, tick_,
                  static_cast<std::int64_t>(id));
    breakers_.erase(id);
    return;
  }
  // Unknown or already departed: close() documents this as a no-op.
}

// ---- data plane ---------------------------------------------------------

void EngineHost::enable_flight(std::size_t spans_per_thread) {
  flight_spans_ = spans_per_thread;
  for (const auto& s : active_) s->enable_flight(spans_per_thread);
  for (const auto& s : queued_) s->enable_flight(spans_per_thread);
}

FleetTick EngineHost::run_fleet_cycle() {
  FleetTick t;
  t.index = tick_;

  drain_commands();
  if (admit_holdoff_ > 0) {
    --admit_holdoff_;
  } else {
    try_admit_queued();
    // Half-open probes obey the same holdoff: freed capacity after a
    // shed is not immediately refilled by a recovering session either.
    probe_tripped();
  }

  // The tick window is the tightest active deadline: every session's due
  // packet gets exactly one dispatch opportunity per window.
  double budget = cfg_.default_tick_us;
  for (const auto& s : active_) budget = std::min(budget, s->deadline_us());
  t.budget_us = budget;
  const double tick_end = fleet_now_us_ + budget;

  // Level-1 schedule: due sessions in EDF order. Ties break by QoS rank
  // (realtime first), then id — the order is fully deterministic.
  // Epsilon absorbs float drift between the fleet clock (accumulated in
  // steps of `budget`) and each session's next_due (steps of its own
  // deadline) — a packet due exactly at the window edge must not slip a
  // whole tick over a rounding ulp.
  constexpr double kDueEpsUs = 1e-6;
  std::vector<Session*>& due = due_;
  due.clear();
  for (const auto& s : active_) {
    if (s->next_due_us() <= tick_end + kDueEpsUs) due.push_back(s.get());
  }
  std::sort(due.begin(), due.end(), [](const Session* a, const Session* b) {
    if (a->next_due_us() != b->next_due_us()) {
      return a->next_due_us() < b->next_due_us();
    }
    if (rank(a->qos()) != rank(b->qos())) {
      return rank(a->qos()) < rank(b->qos());
    }
    return a->id() < b->id();
  });

  const auto t0 = support::now();
  std::vector<SessionId> to_trip;
  for (Session* s : due) {
    const double wait_us = support::since_us(t0);
    const double allowed_us = s->next_due_us() - fleet_now_us_;
    const double completion = s->run_cycle(wait_us, allowed_us);
    m_cycles_.inc();
    h_stage_queue_[rank(s->qos())].record(wait_us);
    h_stage_execute_[rank(s->qos())].record(completion - wait_us);
    // The session's monitor judged the cycle against `allowed_us`; every
    // fleet consumer takes that verdict, so the export equals the sum of
    // the sessions' miss counts exactly.
    const bool missed = s->last_missed();
    if (missed) {
      ++t.misses;
      m_misses_.inc();
      journal_.push(support::EventKind::kDeadlineMiss, tick_,
                    static_cast<std::int64_t>(s->id()), 0, completion);
    }
    if (tsdb_ != nullptr) {
      // Availability bit: clean and merely-late cycles are up; faulted,
      // cancelled, NaN-flushed, and safe-mode cycles burn the budget.
      const engine::CycleOutcome oc = s->last_outcome();
      const bool good = oc == engine::CycleOutcome::kClean ||
                        oc == engine::CycleOutcome::kOverrun;
      slo_fleet_->record_cycle(completion, missed, good);
      slo_qos_[rank(s->qos())]->record_cycle(completion, missed, good);
      if (auto sit = slo_sessions_.find(s->id());
          sit != slo_sessions_.end()) {
        sit->second->record_cycle(completion, missed, good);
      }
    }
    if (auto bit = breakers_.find(s->id()); bit != breakers_.end()) {
      // Failure predicate: a missed deadline or a structurally broken
      // cycle (fault, cancellation, NaN output). Clean degraded cycles
      // are fine — the ladder is handling those.
      const engine::CycleOutcome oc = s->last_outcome();
      const bool failed = missed || oc == engine::CycleOutcome::kFault ||
                          oc == engine::CycleOutcome::kCancelled ||
                          oc == engine::CycleOutcome::kNanOutput;
      const BreakerEvent ev = bit->second.on_cycle(failed, fleet_now_us_);
      if (ev == BreakerEvent::kTripped) {
        to_trip.push_back(s->id());
      } else if (ev == BreakerEvent::kClosed) {
        journal_.push(support::EventKind::kBreakerClose, tick_,
                      static_cast<std::int64_t>(s->id()));
      }
    }
    // Advance to the next packet deadline. A session that lagged a whole
    // window behind drops the lost packets instead of carrying a stale
    // deadline — under EDF an ever-older deadline would sort ahead of
    // every on-time session (realtime included) for the rest of the run.
    double next = s->next_due_us() + s->deadline_us();
    if (next <= fleet_now_us_ + kDueEpsUs) {
      next = tick_end + s->deadline_us();
    }
    s->set_next_due_us(next);
    ++t.sessions_run;
  }
  t.elapsed_us = support::since_us(t0);

  // Trip after the dispatch loop: `due` holds raw pointers into active_,
  // so sessions must not be erased while it is still being walked.
  for (SessionId id : to_trip) trip_session(id);

  // A tick is overloaded when its dispatch outlasts its window.
  t.overloaded = !due.empty() && t.elapsed_us > budget;
  if (t.overloaded) {
    if (++overload_streak_ >= cfg_.overload.trip_ticks) {
      handle_overload(t);
      overload_streak_ = 0;
    }
  } else {
    overload_streak_ = 0;
  }

  fleet_now_us_ = tick_end;
  ++tick_;
  m_ticks_.inc();
  g_active_sessions_.set(static_cast<double>(active_.size()));
  g_queued_sessions_.set(static_cast<double>(queued_.size()));
  g_active_density_.set(active_density_);
  g_uptime_.set(support::process_uptime_seconds());
  if (tsdb_ != nullptr) {
    tsdb_->record(ts_tick_elapsed_, t.elapsed_us);
    // The store runs on the virtual fleet clock: a tick advances it by
    // exactly the budget, so window seals — and therefore every alert
    // transition — are a deterministic function of the dispatch history.
    if (tsdb_->advance(fleet_now_us_) > 0) evaluate_slo();
    refresh_slo_json();
  }
  if (profiler_enabled()) refresh_debug_json();
  if (tick_observer_) tick_observer_(t);
  return t;
}

void EngineHost::refresh_debug_json() {
  // HW counters are host-level: sessions share the pool, so one sampler
  // over the team's tids, one delta per tick. Armed lazily once every
  // worker thread has published its tid (worker 0 = this thread).
  if (cfg_.profiler.mode == engine::ProfMode::kAttribHw && !hw_armed_) {
    std::vector<std::int32_t> tids(threads_, 0);
    tids[0] = engine::HwSampler::self_tid();
    bool all = tids[0] != 0;
    for (unsigned w = 1; w < threads_; ++w) {
      tids[w] = team_.worker_tid(w);
      all = all && tids[w] != 0;
    }
    if (all) {
      hw_sampler_.open(tids);
      hw_armed_ = true;
    }
  }
  if (hw_sampler_.available()) hw_sampler_.sample(hw_tick_);

  std::string& out = debug_scratch_;
  out.clear();
  // ---- /debug/attribution ----
  out += "{\"tick\":";
  out += std::to_string(tick_);
  out += ",\"mode\":\"";
  out += to_string(cfg_.profiler.mode);
  out += "\",\"sessions\":[";
  bool first = true;
  for (const auto& s : active_) {
    if (!s->profiler_enabled()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"id\":";
    out += std::to_string(s->id());
    out += ",\"name\":\"";
    append_json_escaped(out, s->name());
    out += "\",\"qos\":\"";
    out += to_string(s->qos());
    out += "\",\"report\":";
    s->profiler().append_attribution_json(out);
    out += '}';
  }
  out += "]}";
  {
    std::lock_guard lk(debug_mutex_);
    debug_attrib_json_.swap(out);
  }

  // ---- /debug/profile ----
  out.clear();
  out += "{\"tick\":";
  out += std::to_string(tick_);
  out += ",\"mode\":\"";
  out += to_string(cfg_.profiler.mode);
  out += "\",\"hw_available\":";
  out += hw_sampler_.available() ? "true" : "false";
  out += ",\"hw_workers\":[";
  for (std::size_t w = 0; w < hw_tick_.size(); ++w) {
    if (w) out += ',';
    out += "{\"cycles\":";
    out += std::to_string(hw_tick_[w].cycles);
    out += ",\"instructions\":";
    out += std::to_string(hw_tick_[w].instructions);
    out += ",\"cache_misses\":";
    out += std::to_string(hw_tick_[w].cache_misses);
    out += ",\"context_switches\":";
    out += std::to_string(hw_tick_[w].context_switches);
    out += '}';
  }
  out += "],\"sessions\":[";
  first = true;
  for (const auto& s : active_) {
    if (!s->profiler_enabled()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"id\":";
    out += std::to_string(s->id());
    out += ",\"name\":\"";
    append_json_escaped(out, s->name());
    out += "\",\"qos\":\"";
    out += to_string(s->qos());
    out += "\",";
    // Windowed latency since the previous refresh: delta_since never
    // mutates the live histogram, so a concurrent /metrics scrape of the
    // same session cannot observe a reset.
    const support::Histogram& live = s->latency_histogram();
    const auto prev = prev_latency_.find(s->id());
    const support::Histogram win =
        prev != prev_latency_.end() ? live.delta_since(prev->second) : live;
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "\"window\":{\"count\":%zu,\"p50_us\":%.1f,"
                  "\"p99_us\":%.1f},",
                  win.total(), win.quantile(0.5), win.quantile(0.99));
    out += buf;
    prev_latency_.insert_or_assign(s->id(), live);
    out += "\"profile\":";
    s->profiler().append_profile_json(out);
    out += '}';
  }
  out += "]}";
  {
    std::lock_guard lk(debug_mutex_);
    debug_profile_json_.swap(out);
  }
}

std::string EngineHost::debug_attribution_json() const {
  std::lock_guard lk(debug_mutex_);
  return debug_attrib_json_.empty() ? std::string("{\"sessions\":[]}")
                                    : debug_attrib_json_;
}

std::string EngineHost::debug_profile_json() const {
  std::lock_guard lk(debug_mutex_);
  return debug_profile_json_.empty() ? std::string("{\"sessions\":[]}")
                                     : debug_profile_json_;
}

// ---- SLO engine (DESIGN.md §15) ------------------------------------------

void EngineHost::attach_slo(SessionId id) {
  if (tsdb_ == nullptr) return;
  slo_sessions_[id] = std::make_unique<support::SloTracker>(
      *tsdb_, "session_" + std::to_string(id), cfg_.slo.spec,
      cfg_.slo.windows);
}

void EngineHost::detach_slo(SessionId id) {
  if (tsdb_ == nullptr) return;
  slo_sessions_.erase(id);
}

void EngineHost::evaluate_slo() {
  {
    const auto prev = slo_fleet_->status().state;
    if (slo_fleet_->evaluate()) {
      on_slo_transition(*slo_fleet_, 0, prev, nullptr);
    }
    g_slo_budget_.set(slo_fleet_->status().budget_remaining);
    g_slo_state_.set(static_cast<double>(slo_fleet_->status().state));
  }
  for (unsigned q = 0; q < kQoSCount; ++q) {
    const auto prev = slo_qos_[q]->status().state;
    if (slo_qos_[q]->evaluate()) {
      // Scope encoding (journal payload `a`): 0 = fleet, -1-q = QoS
      // class q, positive = session id.
      on_slo_transition(*slo_qos_[q], -1 - static_cast<std::int64_t>(q),
                        prev, nullptr);
    }
    g_slo_qos_budget_[q].set(slo_qos_[q]->status().budget_remaining);
    g_slo_qos_state_[q].set(static_cast<double>(slo_qos_[q]->status().state));
  }
  for (auto& [id, tr] : slo_sessions_) {
    const auto prev = tr->status().state;
    if (tr->evaluate()) {
      on_slo_transition(*tr, static_cast<std::int64_t>(id), prev,
                        session(id));
    }
  }
}

void EngineHost::on_slo_transition(support::SloTracker& tr,
                                   std::int64_t scope,
                                   support::SloAlertState prev,
                                   Session* session) {
  const support::SloStatus& st = tr.status();
  const bool escalated = st.state > prev;
  journal_.push(escalated ? support::EventKind::kSloAlert
                          : support::EventKind::kSloRecover,
                tick_, scope, static_cast<std::int64_t>(st.state),
                st.budget_remaining);
  if (escalated) {
    m_slo_alerts_.inc();
  } else {
    m_slo_recovers_.inc();
  }
  if (!escalated || st.state != support::SloAlertState::kPage) return;

  // A page is an incident, and scopes paging at the same seal (a
  // session, its QoS class, the fleet) describe the same incident: act
  // once per tick, or stacked per-scope responses walk a session's whole
  // ladder into safe mode — and safe-mode cycles are unavailable, which
  // would keep the availability budget burning and the page latched.
  if (slo_dump_tick_ == tick_) return;
  slo_dump_tick_ = tick_;

  // Buy headroom first: walk the paging session's ladder, or — for
  // fleet/class scopes — every besteffort ladder (the overload handler's
  // cheapest rung, without waiting for a tick to overrun).
  if (session != nullptr) {
    session->supervisor().force_degrade();
  } else {
    for (const auto& s : active_) {
      if (s->qos() == QoS::kBestEffort) s->supervisor().force_degrade();
    }
  }
  // Then capture evidence: the last 32 cycles of every live session's
  // span ring, one pid each. The warn->page hysteresis already
  // rate-limits incidents, so no extra cooldown is needed.
  ++slo_incident_dumps_;
  if (!flight_spans_ || cfg_.slo.incident_dump_path.empty()) return;
  std::vector<support::TraceProcess> procs;
  for (const auto& s : active_) procs.push_back(session_trace(*s, 32));
  if (support::write_chrome_trace(cfg_.slo.incident_dump_path, procs)) {
    journal_.push(
        support::EventKind::kFlightDump, tick_,
        static_cast<std::int64_t>(engine::FlightDumpTrigger::kSloPage),
        scope);
  }
}

void EngineHost::refresh_slo_json() {
  std::string& out = debug_scratch_;
  out.clear();
  out += "{\"enabled\":true,\"tick\":";
  out += std::to_string(tick_);
  out += ",\"window_us\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", tsdb_->window_us());
  out += buf;
  out += ",\"sealed_windows\":";
  out += std::to_string(tsdb_->sealed_windows());
  out += ",\"fleet\":";
  slo_fleet_->append_json(out);
  out += ",\"qos\":[";
  for (unsigned q = 0; q < kQoSCount; ++q) {
    if (q) out += ',';
    out += "{\"class\":\"";
    out += to_string(static_cast<QoS>(q));
    out += "\",\"slo\":";
    slo_qos_[q]->append_json(out);
    out += '}';
  }
  out += "],\"sessions\":[";
  bool first = true;
  for (const auto& s : active_) {
    const auto it = slo_sessions_.find(s->id());
    if (it == slo_sessions_.end()) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"id\":";
    out += std::to_string(s->id());
    out += ",\"name\":\"";
    append_json_escaped(out, s->name());
    out += "\",\"qos\":\"";
    out += to_string(s->qos());
    out += "\",\"slo\":";
    it->second->append_json(out);
    out += '}';
  }
  out += "]}";
  {
    std::lock_guard lk(debug_mutex_);
    debug_slo_json_.swap(out);
  }
}

std::string EngineHost::debug_slo_json() const {
  std::lock_guard lk(debug_mutex_);
  return debug_slo_json_.empty() ? std::string("{\"enabled\":false}")
                                 : debug_slo_json_;
}

std::string EngineHost::debug_timeseries_json(std::string_view series,
                                              std::size_t window) const {
  if (tsdb_ == nullptr) {
    return "{\"error\":\"slo engine disabled\",\"series\":[]}";
  }
  // No series named: answer with the index so the endpoint is
  // discoverable without prior knowledge of the series names.
  if (series.empty()) return tsdb_->index_json();
  return tsdb_->render_json(series, window);
}

const support::SloTracker* EngineHost::slo_session(SessionId id) const {
  const auto it = slo_sessions_.find(id);
  return it != slo_sessions_.end() ? it->second.get() : nullptr;
}

void EngineHost::run_fleet_cycles(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_fleet_cycle();
}

void EngineHost::handle_overload(FleetTick& t) {
  m_overloads_.inc();
  journal_.push(support::EventKind::kOverload, tick_, 0, 0, t.elapsed_us);
  // Shed order: walk the lowest class's degradation ladders first; only
  // once the whole class sits at the floor, evict its youngest session.
  // Standard follows besteffort; realtime is never shed — it only ever
  // walks its own ladder, driven by its own supervisor.
  const auto degrade_class = [&](QoS q) {
    bool any = false;
    for (const auto& s : active_) {
      if (s->qos() == q && s->supervisor().force_degrade()) {
        any = true;
        ++t.degraded;
        m_degrade_steps_.inc();
      }
    }
    return any;
  };
  const auto shed_youngest = [&](QoS q) {
    SessionId victim = kInvalidSession;
    for (const auto& s : active_) {
      if (s->qos() == q) victim = std::max(victim, s->id());
    }
    if (victim == kInvalidSession) return false;
    remove_session(victim, SessionState::kShed);
    ++t.shed;
    // Hold queued admissions back for a few ticks so freed capacity is
    // not immediately refilled (shed/admit/shed thrash).
    constexpr unsigned kAdmitHoldoffTicks = 16;
    admit_holdoff_ = kAdmitHoldoffTicks;
    return true;
  };
  if (degrade_class(QoS::kBestEffort)) return;
  if (shed_youngest(QoS::kBestEffort)) return;
  if (!cfg_.overload.shed_standard) return;
  if (degrade_class(QoS::kStandard)) return;
  shed_youngest(QoS::kStandard);
}

// ---- circuit breaking ---------------------------------------------------

void EngineHost::trip_session(SessionId id) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [id](const auto& s) { return s->id() == id; });
  if (it == active_.end()) return;
  Session& s = **it;
  const CircuitBreaker& br = breakers_.at(id);

  m_tripped_.inc();
  journal_.push(support::EventKind::kBreakerTrip, tick_,
                static_cast<std::int64_t>(id),
                static_cast<std::int64_t>(br.trips()), br.last_backoff_us());
  active_density_ = std::max(0.0, active_density_ - s.density());
  // A trip is neither a close nor a shed: it counts only in
  // djstar_fleet_sessions_tripped_total. The session's cycles, misses
  // and latency fold into the departed aggregate now; the restored
  // session restarts from zero.
  stats_.retire(s, /*was_shed=*/false);
  if (flight_spans_) retire_trace(s);
  set_state(id, SessionState::kTripped);
  detach_slo(id);

  TrippedEntry e;
  e.id = id;
  e.snap = s.snapshot();   // before take_spec: snapshot reads live state
  e.spec = s.take_spec();  // arena shared_ptr moves out intact
  tripped_.push_back(std::move(e));
  active_.erase(it);  // destroys the session; no further cycles run
}

void EngineHost::probe_tripped() {
  for (auto it = tripped_.begin(); it != tripped_.end();) {
    const auto bit = breakers_.find(it->id);
    if (bit == breakers_.end()) {  // defensive: breaker lost => drop entry
      it = tripped_.erase(it);
      continue;
    }
    CircuitBreaker& br = bit->second;
    if (!br.probe_due(fleet_now_us_)) {
      ++it;
      continue;
    }
    // A probe must pass the same density test as a fresh admission so a
    // recovering session cannot push the fleet over its utilization
    // bound — but it is NOT appended to the admission log: the log is a
    // pure function of the submission sequence (replayable), and probe
    // timing depends on measured failures.
    const double density = it->snap.cost_estimate_us / it->spec.deadline_us;
    const AdmissionVerdict v = admission_.decide(
        density, active_density_, active_.size(), queued_.size());
    if (v != AdmissionVerdict::kAdmitted) {
      ++it;  // capacity is tight; retry next tick, backoff unchanged
      continue;
    }
    br.begin_probe();
    journal_.push(support::EventKind::kBreakerProbe, tick_,
                  static_cast<std::int64_t>(it->id), 0, br.last_backoff_us());

    std::unique_ptr<Session> s = build_session(it->id, std::move(it->spec));
    s->restore(it->snap);
    s->set_next_due_us(fleet_now_us_ + s->deadline_us());
    // Fresh SLO tracker, like the stats: the restored session's burn
    // restarts from zero rather than re-paging off pre-trip history.
    attach_slo(it->id);
    set_state(it->id, SessionState::kActive);
    active_density_ += s->density();
    m_restored_.inc();
    journal_.push(support::EventKind::kSessionRestored, tick_,
                  static_cast<std::int64_t>(s->id()));
    active_.push_back(std::move(s));
    it = tripped_.erase(it);
  }
}

// ---- introspection ------------------------------------------------------

FleetStats EngineHost::stats() const {
  std::vector<const Session*> live;
  live.reserve(active_.size());
  for (const auto& s : active_) live.push_back(s.get());
  FleetStats f = stats_.aggregate(live);
  // The lifecycle counts are the djstar_fleet_* counters themselves, so a
  // scrape equals stats() by construction.
  f.ticks = m_ticks_.value();
  f.submitted = m_submitted_.value();
  f.admitted = m_admitted_.value();
  f.rejected = m_rejected_.value();
  f.shed = m_shed_.value();
  f.closed = m_closed_.value();
  f.overload_events = m_overloads_.value();
  return f;
}

const Session* EngineHost::session(SessionId id) const noexcept {
  for (const auto& s : active_) {
    if (s->id() == id) return s.get();
  }
  return nullptr;
}

Session* EngineHost::session(SessionId id) noexcept {
  return const_cast<Session*>(
      static_cast<const EngineHost*>(this)->session(id));
}

void EngineHost::recalibrate() {
  double density = 0;
  for (const auto& s : active_) {
    s->set_cost_estimate_us(s->observed_cost_p99_us());
    density += s->density();
  }
  active_density_ = density;
}

bool EngineHost::write_metrics(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << registry_.prometheus();
  return static_cast<bool>(f);
}

void EngineHost::start_metrics_exporter(const std::string& path,
                                        double period_ms) {
  stop_metrics_exporter();
  {
    std::lock_guard lk(exporter_mutex_);
    exporter_stop_ = false;
  }
  exporter_ = std::thread([this, path, period_ms] {
    const auto period = std::chrono::duration<double, std::milli>(
        period_ms > 0 ? period_ms : 1000.0);
    std::unique_lock lk(exporter_mutex_);
    for (;;) {
      // Write first so even a short-lived host leaves a scrape behind.
      lk.unlock();
      write_metrics(path);
      lk.lock();
      if (exporter_cv_.wait_for(lk, period, [&] { return exporter_stop_; })) {
        return;
      }
    }
  });
}

void EngineHost::stop_metrics_exporter() {
  {
    std::lock_guard lk(exporter_mutex_);
    exporter_stop_ = true;
  }
  exporter_cv_.notify_all();
  if (exporter_.joinable()) exporter_.join();
}

void EngineHost::retire_trace(const Session& s) {
  if (retired_traces_.size() == kRetiredTraces) retired_traces_.pop_front();
  retired_traces_.push_back(session_trace(s));
}

bool EngineHost::write_chrome_trace(const std::string& path) const {
  std::vector<support::TraceProcess> procs(retired_traces_.begin(),
                                           retired_traces_.end());
  for (const auto& s : active_) {
    if (s->flight().enabled()) procs.push_back(session_trace(*s));
  }
  return support::write_chrome_trace(path, procs);
}

}  // namespace djstar::serve
