#include "djstar/serve/session.hpp"

#include "djstar/serve/admission.hpp"
#include "djstar/support/assert.hpp"
#include "djstar/support/stats.hpp"
#include "djstar/support/time.hpp"

#include <algorithm>

namespace djstar::serve {
namespace {

engine::SupervisorConfig session_supervisor_cfg(engine::SupervisorConfig scfg,
                                                double deadline_us) {
  scfg.deadline_us = deadline_us;
  // One watchdog thread per session does not scale to a fleet; a stuck
  // session is the host's problem (future host-level watchdog).
  scfg.use_watchdog = false;
  return scfg;
}

}  // namespace

Session::Session(SessionId id, SessionSpec spec, core::Team& team,
                 const core::ExecOptions& exec,
                 const core::WorkStealingOptions& ws,
                 engine::SupervisorConfig scfg)
    : id_(id),
      spec_(std::move(spec)),
      compiled_(std::make_unique<core::CompiledGraph>(spec_.graph)),
      monitor_(spec_.deadline_us),
      supervisor_(*compiled_,
                  session_supervisor_cfg(scfg, spec_.deadline_us)),
      latency_(0.0, 4.0 * spec_.deadline_us, kLatencyBins) {
  core::ExecOptions opts = exec;
  opts.threads = team.threads();
  opts.flight = &flight_;
  hosted_ = std::make_unique<core::WorkStealingExecutor>(*compiled_, team,
                                                         opts, ws);
  opts.threads = 1;
  fallback_ = std::make_unique<core::SequentialExecutor>(*compiled_, opts);

  cost_estimate_us_ =
      spec_.cost_estimate_us > 0
          ? spec_.cost_estimate_us
          : estimate_graph_cost_us(*compiled_, spec_.node_cost_us,
                                   team.threads());
  if (spec_.faults.any()) compiled_->arm_faults(spec_.faults);
  DJSTAR_ASSERT_MSG(spec_.deadline_us > 0, "session deadline must be > 0");
}

void Session::apply_level(engine::DegradationLevel level) {
  if (level == applied_level_) return;
  const bool shed = level >= engine::DegradationLevel::kBypassFx;
  for (core::NodeId n : spec_.sheddable) {
    compiled_->set_node_masked(n, shed);
  }
  applied_level_ = level;
}

double Session::run_cycle(double wait_us, double allowed_us) {
  using engine::DegradationLevel;
  // Actuate the ladder level decided at the end of the previous cycle —
  // between cycles, where the compiled graph permits mutation.
  const DegradationLevel level = supervisor_.level();
  apply_level(level);
  flight_.begin_cycle();
  const bool safe_mode = level == DegradationLevel::kSafeMode;

  engine::CycleBreakdown c;
  // EDF dispatch delay counts against the session's budget: a packet
  // served late is late no matter how fast its graph ran. The TP slot
  // is reused for it (the serve layer has no timecode phase).
  c.tp_us = wait_us;
  if (!safe_mode) {
    const auto t0 = support::now();
    core::Executor* exec = level >= DegradationLevel::kSequentialFallback
                               ? static_cast<core::Executor*>(fallback_.get())
                               : static_cast<core::Executor*>(hosted_.get());
    exec->run_cycle();
    c.graph_us = support::since_us(t0);
  }

  // The monitor judges the cycle against its tick-relative budget; the
  // supervisor, the profiler and the host take its verdict.
  last_missed_ =
      monitor_.add(c, static_cast<unsigned>(level), allowed_us);
  last_outcome_ =
      safe_mode ? supervisor_.supervise_safe_mode_cycle(c)
                : supervisor_.supervise_cycle(
                      c, last_missed_,
                      spec_.output != nullptr ? *spec_.output : silent_);
  const double completion = c.total_us();
  latency_.add(completion);

  if (profiler_ != nullptr) {
    // Safe mode records no spans; the empty attribution still counts the
    // cycle so exports stay exact.
    flight_.collect_cycle(flight_.cycle(), prof_spans_);
    profiler_->on_cycle(prof_spans_, last_missed_, monitor_.cycles());
  }
  return completion;
}

void Session::enable_profiler(const engine::ProfilerConfig& pcfg,
                              support::MetricsRegistry* registry,
                              support::EventJournal* journal) {
  if (pcfg.mode == engine::ProfMode::kOff) {
    profiler_.reset();
    return;
  }
  if (!flight_.enabled()) enable_flight(0);
  profiler_ = std::make_unique<engine::CycleProfiler>(
      pcfg, engine::predecessor_lists(spec_.graph), spec_.deadline_us,
      registry, journal);
}

void Session::arm_faults(const core::chaos::FaultPlan& plan) {
  compiled_->arm_faults(plan);
}

void Session::disarm_faults() noexcept { compiled_->disarm_faults(); }

double Session::observed_cost_p99_us() const {
  const auto& xs = monitor_.graph_samples();
  if (xs.size() < 32) return cost_estimate_us_;
  return support::quantile(xs, 0.99);
}

void Session::enable_flight(std::size_t spans_per_thread) {
  flight_.configure(hosted_->threads(),
                    std::max(spans_per_thread,
                             support::whole_cycle_spans(node_count())));
}

void Session::restore(const SessionSnapshot& snap) {
  // Walk the fresh supervisor's ladder down to the saved level so a
  // session that tripped while degraded does not restart at full quality
  // only to fault again; the next clean window recovers it normally.
  while (supervisor_.level() < snap.level && supervisor_.force_degrade()) {
  }
  if (snap.cost_estimate_us > 0) cost_estimate_us_ = snap.cost_estimate_us;
}

}  // namespace djstar::serve
