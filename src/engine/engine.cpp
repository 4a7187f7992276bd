#include "djstar/engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "djstar/core/team.hpp"
#include "djstar/core/thread_count.hpp"
#include "djstar/support/assert.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/time.hpp"

namespace djstar::engine {
namespace {

std::array<std::unique_ptr<Deck>, 4> make_decks(const EngineConfig& cfg) {
  std::array<std::unique_ptr<Deck>, 4> decks;
  for (unsigned d = 0; d < 4; ++d) {
    audio::TrackSpec spec;
    spec.seed = cfg.track_seeds[d];
    spec.bpm = 120.0 + 4.0 * d;  // slightly different tempos to beat-match
    spec.root_note = 45 + static_cast<int>(d) * 2;
    decks[d] = std::make_unique<Deck>(d, spec);
    decks[d]->set_keylock(cfg.keylock);
  }
  return decks;
}

std::array<Deck*, 4> deck_ptrs(
    const std::array<std::unique_ptr<Deck>, 4>& decks) {
  return {decks[0].get(), decks[1].get(), decks[2].get(), decks[3].get()};
}

using Interval = std::pair<support::Clock::time_point,
                           support::Clock::time_point>;

/// Length of the union of four intervals.
support::Clock::duration union_length(std::array<Interval, 4> iv) {
  std::sort(iv.begin(), iv.end());
  support::Clock::duration len{0};
  auto [begin, end] = iv[0];
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first > end) {
      len += end - begin;
      begin = iv[i].first;
    }
    end = std::max(end, iv[i].second);
  }
  return len + (end - begin);
}

double to_us(support::Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

void apply_env_overrides(core::TeamHealConfig& heal, ProfilerConfig& profiler,
                         support::SloConfig& slo) {
  if (auto v = support::env::get("DJSTAR_HEAL")) {
    heal.mode = core::parse_heal_mode(*v);
  }
  if (auto v = support::env::get("DJSTAR_PROF")) {
    const auto mode = parse_prof_mode(*v);
    if (!mode) {
      throw std::invalid_argument(
          "DJSTAR_PROF: expected off, attrib, or attrib+hw, got '" + *v + "'");
    }
    profiler.mode = *mode;
  }
  if (auto v = support::env::get("DJSTAR_SLO")) {
    const support::SloConfig parsed = support::SloConfig::parse(*v);
    slo.enabled = parsed.enabled;
    slo.spec = parsed.spec;
  }
}

AudioEngine::AudioEngine(EngineConfig cfg)
    : cfg_(cfg),
      decks_(make_decks(cfg)),
      graph_nodes_(deck_ptrs(decks_)),
      monitor_(cfg.deadline_us) {
  // DJSTAR_THREADS overrides, 0 = auto; blank or garbage throws.
  cfg_.threads = core::resolve_thread_count(cfg_.threads);
  apply_env_overrides(cfg_.heal, cfg_.profiler, cfg_.slo);

  // The deck jobs advance their decks in every cycle: no mask, fault or
  // drain skips them (DESIGN.md §8).
  compiled_ = std::make_unique<core::CompiledGraph>(
      graph_nodes_.graph(), core::QueueOrder::kLevelized,
      graph_nodes_.deck_jobs());

  // Register the bypass forms once; masking toggles them per level.
  for (core::NodeId n = 0; n < compiled_->node_count(); ++n) {
    if (graph_nodes_.degrade_tier(n) == DegradeTier::kFxBypass) {
      compiled_->set_bypass(n, graph_nodes_.bypass_work(n));
    }
  }
  // NaN faults are applied *after* the executor returns (see
  // apply_pending_poison) so injected NaNs never enter filter state.
  compiled_->set_poison_hook([this](core::NodeId) {
    poison_pending_.store(true, std::memory_order_relaxed);
  });
  if (auto spec = support::env::get("DJSTAR_FAULTS")) {
    const auto plan = core::chaos::FaultPlan::parse(*spec);
    if (!plan) {
      throw std::invalid_argument("DJSTAR_FAULTS: malformed fault plan '" +
                                  *spec + "'");
    }
    compiled_->arm_faults(*plan);
  }

  // DJSTAR_FLIGHT=<path>: telemetry on, incidents auto-dump to <path>.
  if (auto path = support::env::get("DJSTAR_FLIGHT", "path")) {
    TelemetryConfig tcfg;
    tcfg.flight_dump_path = *path;
    telemetry_ =
        std::make_unique<EngineTelemetry>(tcfg, cfg_.deadline_us, flight_);
    compiled_->set_journal(&telemetry_->journal());
  }
  // DJSTAR_TRACE=<path>: capture the first cycle as a Chrome trace.
  if (auto path = support::env::get("DJSTAR_TRACE", "path")) {
    env_trace_path_ = *path;
    env_trace_pending_ = true;
  }

  configure_flight();
  rebuild_executor();

  if (cfg_.profiler.mode != ProfMode::kOff) enable_profiler(cfg_.profiler);
  if (cfg_.slo.enabled) enable_slo(cfg_.slo);
}

core::ExecOptions AudioEngine::exec_options() noexcept {
  core::ExecOptions opts = cfg_.exec;
  opts.threads = cfg_.threads;
  opts.heal = cfg_.heal;
  opts.flight = &flight_;
  return opts;
}

// The span ring records while something reads it: telemetry (and through
// it the profiler) or a pending DJSTAR_TRACE capture. Between cycles only.
void AudioEngine::configure_flight() {
  if (telemetry_ == nullptr && !env_trace_pending_) {
    flight_.disable();
    return;
  }
  // With telemetry on, the ring keeps this many spans per worker lane
  // for incident dumps; always at least one whole cycle.
  constexpr std::size_t kTelemetrySpansPerThread = 2048;
  const std::size_t spans =
      telemetry_ != nullptr ? kTelemetrySpansPerThread : 0;
  flight_.configure(cfg_.threads,
                    std::max(spans, support::whole_cycle_spans(
                                        compiled_->node_count())));
}

void AudioEngine::rebuild_executor() {
  executor_.reset();  // join old workers before spawning new ones
  executor_ =
      core::make_executor(cfg_.strategy, *compiled_, exec_options(), cfg_.ws);
  hw_armed_ = false;  // fresh team: new tids; re-arm perf counters lazily
}

// Fold the team's self-healing counters into the supervisor and
// telemetry (DESIGN.md §12). Called between cycles, after the executor
// returned.
void AudioEngine::poll_heal() {
  const core::Team* tm = executor_->team();
  if (tm == nullptr || !tm->healing()) return;
  ++heal_cycle_;
  const core::HealStats hs = tm->heal_stats();
  if (supervisor_) {
    if (hs.quarantines > seen_heal_quarantines_) {
      supervisor_->note_worker_quarantine(
          hs.quarantines - seen_heal_quarantines_, heal_cycle_);
    }
    if (hs.respawns > seen_heal_respawns_) {
      supervisor_->note_worker_respawn(hs.respawns - seen_heal_respawns_,
                                       heal_cycle_);
    }
  }
  seen_heal_quarantines_ = hs.quarantines;
  seen_heal_respawns_ = hs.respawns;
  if (telemetry_) telemetry_->on_heal(hs);
}

void AudioEngine::enable_profiler(const ProfilerConfig& pcfg) {
  cfg_.profiler = pcfg;
  if (cfg_.profiler.mode == ProfMode::kOff) {
    profiler_.reset();
    hw_sampler_.reset();
    return;
  }
  // Telemetry keeps the span ring on and carries the profiler's series.
  if (telemetry_ == nullptr) enable_telemetry();
  profiler_ = std::make_unique<CycleProfiler>(
      cfg_.profiler, predecessor_lists(graph_nodes_.graph()), cfg_.deadline_us,
      &telemetry_->registry(), &telemetry_->journal());
  if (cfg_.profiler.mode == ProfMode::kAttribHw) {
    hw_sampler_ = std::make_unique<HwSampler>();
    profiler_->set_hw(hw_sampler_.get());
  } else {
    hw_sampler_.reset();
  }
  hw_armed_ = false;
}

// Attribute the finished cycle from its spans in the ring (DESIGN.md §14).
void AudioEngine::profile_cycle(bool missed) {
  if (profiler_ == nullptr || telemetry_ == nullptr) return;
  if (hw_sampler_ != nullptr && !hw_armed_) {
    // Arm perf counters lazily after the first cycle: by then every
    // team worker has started and recorded its tid.
    std::vector<std::int32_t> tids;
    if (const core::Team* tm = executor_->team()) {
      for (unsigned w = 0; w < tm->threads(); ++w) {
        tids.push_back(tm->worker_tid(w));
      }
    } else {
      tids.push_back(HwSampler::self_tid());  // sequential: the caller
    }
    hw_sampler_->open(tids);
    hw_armed_ = true;
  }
  flight_.collect_cycle(flight_.cycle(), prof_spans_);
  profiler_->on_cycle(prof_spans_, missed, flight_.cycle());
}

void AudioEngine::enable_slo(const support::SloConfig& scfg) {
  cfg_.slo = scfg;
  slo_.reset();  // tracker drops its series before the store goes
  slo_tsdb_.reset();
  if (!cfg_.slo.enabled) return;
  // Gauges, journal events, and the page-triggered incident dump all
  // live on the telemetry bundle.
  if (telemetry_ == nullptr) enable_telemetry();
  if (!cfg_.slo.windows.valid()) {
    cfg_.slo.windows =
        support::SloWindows::sre_defaults(cfg_.slo.tsdb.window_us);
  }
  slo_tsdb_ = std::make_unique<support::TimeSeriesStore>(cfg_.slo.tsdb);
  slo_ = std::make_unique<support::SloTracker>(*slo_tsdb_, "engine",
                                               cfg_.slo.spec,
                                               cfg_.slo.windows);
  auto& reg = telemetry_->registry();
  g_slo_budget_ = reg.gauge(
      "djstar_slo_budget_remaining",
      "Error budget remaining over the slow-long window (worst "
      "objective; 1 = untouched, 0 = exhausted)");
  g_slo_state_ = reg.gauge("djstar_slo_alert_state",
                           "SLO alert state (0 = ok, 1 = warn, 2 = page)");
  g_slo_burn_fast_ =
      reg.gauge("djstar_slo_miss_burn_fast",
                "Deadline-miss burn rate over the fast-short window");
  g_slo_burn_slow_ =
      reg.gauge("djstar_slo_miss_burn_slow",
                "Deadline-miss burn rate over the slow-short window");
  g_slo_budget_.set(1.0);
  g_slo_state_.set(0.0);
  slo_cycles_seen_ = 0;
}

// Feed the finished cycle into the SLO tracker and, when the virtual
// clock sealed a tsdb window, re-evaluate the burn rates. A page-level
// escalation is handed to the supervisor as an early-degradation signal
// and to the flight recorder as an incident-dump trigger (DESIGN.md §15).
void AudioEngine::slo_cycle(const CycleBreakdown& c, bool missed,
                            bool good) {
  if (slo_ == nullptr) return;
  slo_->record_cycle(c.total_us(), missed, good);
  ++slo_cycles_seen_;
  // Virtual clock: cycles × deadline. Deterministic, so the whole alert
  // state machine replays identically under test.
  const double now_us =
      static_cast<double>(slo_cycles_seen_) * cfg_.deadline_us;
  if (slo_tsdb_->advance(now_us) == 0) return;
  const support::SloAlertState prev = slo_->status().state;
  if (slo_->evaluate()) {
    const support::SloStatus& st = slo_->status();
    const bool escalated = st.state > prev;
    telemetry_->journal().push(
        escalated ? support::EventKind::kSloAlert
                  : support::EventKind::kSloRecover,
        slo_cycles_seen_, /*a=*/0,
        static_cast<std::int64_t>(st.state), st.budget_remaining);
    if (escalated && st.state == support::SloAlertState::kPage) {
      if (supervisor_) supervisor_->force_degrade();
      telemetry_->on_slo_page(slo_cycles_seen_);
    }
  }
  const support::SloStatus& st = slo_->status();
  g_slo_budget_.set(st.budget_remaining);
  g_slo_state_.set(static_cast<double>(st.state));
  g_slo_burn_fast_.set(st.miss.fast_short);
  g_slo_burn_slow_.set(st.miss.slow_short);
}

void AudioEngine::enable_telemetry(const TelemetryConfig& tcfg) {
  telemetry_ =
      std::make_unique<EngineTelemetry>(tcfg, cfg_.deadline_us, flight_);
  compiled_->set_journal(&telemetry_->journal());
  if (supervisor_) supervisor_->set_journal(&telemetry_->journal());
  configure_flight();
}

void AudioEngine::set_strategy(core::Strategy s, unsigned threads) {
  cfg_.strategy = s;
  cfg_.threads = core::resolve_thread_count(threads);
  configure_flight();  // one lane per worker
  // The compiled graph (including any degradation masks), the monitor
  // and the supervisor's ladder are untouched by the swap.
  rebuild_executor();
}

void AudioEngine::enable_supervision(const SupervisorConfig& scfg) {
  SupervisorConfig sc = scfg;
  sc.deadline_us = cfg_.deadline_us;
  supervisor_ = std::make_unique<CycleSupervisor>(*compiled_, sc);
  if (telemetry_) supervisor_->set_journal(&telemetry_->journal());
  if (!fallback_exec_) {
    // Pre-built so stepping onto the kSequentialFallback rung is a
    // pointer swap, not an executor construction on the audio path.
    core::ExecOptions opts = exec_options();
    opts.threads = 1;
    fallback_exec_ = core::make_executor(core::Strategy::kSequential,
                                         *compiled_, opts, cfg_.ws);
  }
}

void AudioEngine::phase_tp(CycleBreakdown& c) {
  // Safe mode's TP alone: decode the external control signals on the
  // caller (paper: 16% of the APC).
  support::ScopedTimer t(c.tp_us);
  for (auto& d : decks_) d->process_timecode();
}

void AudioEngine::split_phases(support::Clock::time_point t0,
                               CycleBreakdown& c) const {
  // The dispatch since t0 ran the deck jobs' TP (paper: 16% of the APC)
  // and GP (time stretching, 33%) and the graph (38%); split its wall
  // time as CycleBreakdown defines the three (deadline.hpp).
  const auto wall = support::now() - t0;
  std::array<Interval, 4> tp{}, job{};
  for (unsigned d = 0; d < 4; ++d) {
    const DeckJobTimes& t = graph_nodes_.deck_job_times(d);
    tp[d] = {t.tp_begin, t.gp_begin};
    job[d] = {t.tp_begin, t.gp_end};
  }
  const auto tp_len = union_length(tp);
  const auto job_len = union_length(job);
  c.tp_us = to_us(tp_len);
  c.gp_us = to_us(job_len - tp_len);
  c.graph_us = to_us(wall - job_len);
}

void AudioEngine::phase_vc(CycleBreakdown& c) {
  // VC: accounting calculations, e.g. updating the master tempo.
  support::ScopedTimer t(c.vc_us);
  double tempo = 0.0;
  for (auto& d : decks_) {
    tempo += std::abs(d->decoded_pitch()) * d->track().bpm();
  }
  tempo *= 0.25;
  master_tempo_bpm_ += 0.1 * (tempo - master_tempo_bpm_);
  const double beats_per_block =
      master_tempo_bpm_ / 60.0 * (static_cast<double>(audio::kBlockSize) /
                                  audio::kSampleRate);
  beat_phase_ = std::fmod(beat_phase_ + beats_per_block, 1.0);
}

void AudioEngine::apply_pending_poison() noexcept {
  if (poison_pending_.exchange(false, std::memory_order_relaxed)) {
    graph_nodes_.poison_output();
  }
}

void AudioEngine::finish_cycle_telemetry(const CycleBreakdown& c,
                                         unsigned level, bool missed) {
  // DJSTAR_TRACE: the first cycle just finished — write it once, and stop
  // the ring unless telemetry reads it (workers see the disable at the
  // next cycle's synchronization).
  if (env_trace_pending_) {
    flight_.dump_chrome_trace(env_trace_path_, 1, cfg_.deadline_us, "djstar");
    env_trace_pending_ = false;
    if (telemetry_ == nullptr) flight_.disable();
  }
  if (telemetry_ != nullptr) {
    SupervisorStats sup{};
    const SupervisorStats* sp = nullptr;
    if (supervisor_) {
      sup = supervisor_->stats();
      sp = &sup;
    }
    telemetry_->on_cycle(c, level, missed, sp, compiled_->faults_injected());
  }
}

CycleBreakdown AudioEngine::run_cycle() {
  // Supervised: actuate the level the ladder decided at the end of the
  // previous cycle; all graph mutation happens here, between cycles.
  if (supervisor_) apply_degradation(supervisor_->level());
  const auto level = static_cast<unsigned>(applied_level_);
  const bool safe_mode = applied_level_ == DegradationLevel::kSafeMode;
  flight_.begin_cycle();

  CycleBreakdown c;
  if (safe_mode) {
    // Keep decoding the control signals (so recovery resumes in sync)
    // but skip GP/Graph/VC and the team; the supervisor feeds the sound
    // card.
    phase_tp(c);
  } else {
    core::Executor* exec =
        applied_level_ >= DegradationLevel::kSequentialFallback
            ? fallback_exec_.get()
            : executor_.get();
    // One dispatch runs the deck jobs (TP, GP) and the graph, and wakes
    // the parked team.
    const auto t0 = support::now();
    if (supervisor_) supervisor_->watchdog_arm();
    exec->run_cycle();
    if (supervisor_) supervisor_->watchdog_disarm();
    split_phases(t0, c);
    poll_heal();
    apply_pending_poison();
    phase_vc(c);
  }

  // DeadlineMonitor::add decides the miss; every consumer below takes
  // its verdict, so the ladder, blame reports, exported counters and
  // burn rates always agree with monitor().misses().
  const bool missed = monitor_.add(c, level);
  // Availability: a clean or merely late cycle emitted real audio; a
  // faulted, cancelled, NaN or safe-mode cycle shipped a repaired packet.
  // Unsupervised cycles have no structural-failure signal, so every one
  // counts as available; misses still burn the miss budget.
  bool good = true;
  if (supervisor_) {
    const CycleOutcome outcome =
        safe_mode
            ? supervisor_->supervise_safe_mode_cycle(c)
            : supervisor_->supervise_cycle(c, missed, graph_nodes_.output());
    good = outcome == CycleOutcome::kClean ||
           outcome == CycleOutcome::kOverrun;
  }
  finish_cycle_telemetry(c, level, missed);
  profile_cycle(missed);  // no graph spans in safe mode; keeps counts exact
  slo_cycle(c, missed, good);
  return c;
}

void AudioEngine::apply_degradation(DegradationLevel target) {
  if (target == applied_level_) return;
  const bool shed = target >= DegradationLevel::kBypassFx;
  for (core::NodeId n = 0; n < compiled_->node_count(); ++n) {
    switch (graph_nodes_.degrade_tier(n)) {
      case DegradeTier::kFxBypass:   // masked FX run their bypass form
      case DegradeTier::kSinkSkip:   // masked sinks are skipped outright
        compiled_->set_node_masked(n, shed);
        break;
      case DegradeTier::kEssential:
        break;
    }
  }
  const bool no_stretch = target >= DegradationLevel::kNoStretch;
  for (auto& d : decks_) d->set_stretch_degraded(no_stretch);
  applied_level_ = target;
}

void AudioEngine::run_cycles(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_cycle();
}

std::vector<double> AudioEngine::measure_node_durations(std::size_t cycles) {
  const auto order = compiled_->order();
  std::vector<double> sum(kPaperNodes, 0.0);
  for (std::size_t it = 0; it < cycles; ++it) {
    // The deck jobs run first and untimed, as the TP and GP phases did.
    for (core::NodeId j : graph_nodes_.deck_jobs()) compiled_->work(j)();
    for (core::NodeId n : order) {
      if (n >= kPaperNodes) continue;
      const auto t0 = support::now();
      compiled_->work(n)();
      sum[n] += support::since_us(t0);
    }
  }
  for (auto& s : sum) s /= static_cast<double>(cycles ? cycles : 1);
  return sum;
}

}  // namespace djstar::engine
