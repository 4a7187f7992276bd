#include "djstar/engine/telemetry.hpp"

#include <array>

#include "djstar/support/build_info.hpp"

namespace djstar::engine {
namespace {

// APC totals cluster around the 2.9 ms deadline; buckets bracket it with
// a decade of headroom either side.
constexpr std::array<double, 8> kApcBounds = {100,  200,  400,  800,
                                              1600, 2900, 5800, 11600};
// Graph phase is ~38% of the APC.
constexpr std::array<double, 7> kGraphBounds = {50,  100, 200, 400,
                                                800, 1600, 3200};
// Event-journal ring capacity (events).
constexpr std::size_t kJournalCapacity = 4096;

}  // namespace

EngineTelemetry::EngineTelemetry(const TelemetryConfig& cfg,
                                 double deadline_us,
                                 const support::FlightRecorder& flight)
    : cfg_(cfg),
      deadline_us_(deadline_us),
      journal_(kJournalCapacity),
      flight_(flight),
      cycles_(registry_.counter("djstar_cycles_total",
                                "Audio processing cycles executed")),
      misses_(registry_.counter("djstar_deadline_misses_total",
                                "Cycles whose APC total exceeded the "
                                "deadline")),
      faults_(registry_.counter("djstar_faults_injected_total",
                                "Chaos faults fired on graph nodes")),
      degrades_(registry_.counter("djstar_degrade_steps_total",
                                  "Degradation-ladder rungs stepped down")),
      recoveries_(registry_.counter("djstar_recover_steps_total",
                                    "Degradation-ladder rungs stepped up")),
      watchdog_cancels_(registry_.counter(
          "djstar_watchdog_cancels_total",
          "Cycles cancelled by the watchdog thread")),
      journal_dropped_(registry_.counter(
          "djstar_journal_dropped_events_total",
          "Journal events dropped because the ring was full")),
      flight_dumps_total_(registry_.counter(
          "djstar_flight_dumps_total",
          "Automatic flight-recorder trace dumps written")),
      quarantines_(registry_.counter(
          "djstar_worker_quarantines_total",
          "Workers quarantined by the team medic")),
      respawns_(registry_.counter(
          "djstar_worker_respawns_total",
          "Replacement workers that rejoined the team")),
      rescued_units_(registry_.counter(
          "djstar_rescued_units_total",
          "Nodes survivors adopted from quarantined workers")),
      live_workers_(registry_.gauge(
          "djstar_live_workers",
          "Workers currently alive in the team (threads minus "
          "unhealed quarantines)")),
      level_gauge_(registry_.gauge("djstar_degradation_level",
                                   "Current degradation-ladder level "
                                   "(0 = full quality)")),
      apc_us_(registry_.histogram("djstar_apc_total_us",
                                  "APC total per cycle (us)", kApcBounds)),
      graph_us_(registry_.histogram("djstar_graph_us",
                                    "Task-graph phase per cycle (us)",
                                    kGraphBounds)) {
  uptime_ = support::register_build_info(registry_);
}

void EngineTelemetry::on_cycle(const CycleBreakdown& c, unsigned level,
                               bool missed, const SupervisorStats* sup,
                               std::uint64_t faults_injected) {
  ++cycle_count_;
  cycles_.inc();
  uptime_.set(support::process_uptime_seconds());
  const double total = c.total_us();
  apc_us_.record(total);
  graph_us_.record(c.graph_us);
  level_gauge_.set(static_cast<double>(level));

  if (missed) {
    misses_.inc();
    journal_.push(support::EventKind::kDeadlineMiss, cycle_count_,
                  static_cast<std::int64_t>(level), 0, total);
  }

  // Delta-sync the cumulative sources into monotone counters.
  if (faults_injected > seen_faults_) {
    faults_.inc(faults_injected - seen_faults_);
    seen_faults_ = faults_injected;
  }
  bool watchdog_fired = false;
  if (sup != nullptr) {
    if (sup->watchdog_cancels > seen_wd_cancels_) {
      watchdog_cancels_.inc(sup->watchdog_cancels - seen_wd_cancels_);
      seen_wd_cancels_ = sup->watchdog_cancels;
      watchdog_fired = true;
    }
    if (sup->recoveries > seen_recoveries_) {
      recoveries_.inc(sup->recoveries - seen_recoveries_);
      seen_recoveries_ = sup->recoveries;
    }
  }
  {
    const std::uint64_t jd = journal_.dropped();
    if (jd > seen_journal_dropped_) {
      journal_dropped_.inc(jd - seen_journal_dropped_);
      seen_journal_dropped_ = jd;
    }
  }

  // Ladder movement: level changes arrive with a one-cycle actuation lag
  // relative to the supervisor's transition log, which is fine — the
  // counters track applied levels, the journal (fed by the supervisor
  // directly) has the authoritative transition records.
  const bool level_changed = level != last_level_;
  if (level_changed) {
    if (level > last_level_) {
      degrades_.inc(level - last_level_);
    }
    last_level_ = level;
  }

  // Automatic incident dump, most specific trigger first.
  if (watchdog_fired) {
    maybe_dump_flight(FlightDumpTrigger::kWatchdogFire, cycle_count_);
  } else if (level_changed) {
    maybe_dump_flight(FlightDumpTrigger::kLevelChange, cycle_count_);
  } else if (missed) {
    maybe_dump_flight(FlightDumpTrigger::kDeadlineMiss, cycle_count_);
  }
}

void EngineTelemetry::on_heal(const core::HealStats& hs) {
  live_workers_.set(static_cast<double>(hs.live));
  bool quarantined = false;
  if (hs.quarantines > seen_quarantines_) {
    quarantines_.inc(hs.quarantines - seen_quarantines_);
    seen_quarantines_ = hs.quarantines;
    quarantined = true;
    journal_.push(support::EventKind::kWorkerQuarantine, cycle_count_,
                  static_cast<std::int64_t>(hs.quarantines),
                  static_cast<std::int64_t>(hs.live));
  }
  if (hs.respawns > seen_respawns_) {
    respawns_.inc(hs.respawns - seen_respawns_);
    seen_respawns_ = hs.respawns;
    journal_.push(support::EventKind::kWorkerRespawn, cycle_count_,
                  static_cast<std::int64_t>(hs.respawns),
                  static_cast<std::int64_t>(hs.live));
  }
  if (hs.rescues > seen_rescued_) {
    rescued_units_.inc(hs.rescues - seen_rescued_);
    seen_rescued_ = hs.rescues;
  }
  if (quarantined) {
    // Every quarantine is an incident: capture the cycle that lost a
    // worker while the flight ring still holds it.
    maybe_dump_flight(FlightDumpTrigger::kWorkerQuarantine, cycle_count_);
  }
}

void EngineTelemetry::maybe_dump_flight(FlightDumpTrigger trigger,
                                        std::uint64_t cycle, bool force) {
  if (cfg_.flight_dump_path.empty() || !flight_.enabled()) return;
  if (!force && dumped_once_ &&
      cycle - last_dump_cycle_ < cfg_.flight_dump_cooldown) {
    return;
  }
  if (!flight_.dump_chrome_trace(cfg_.flight_dump_path,
                                 cfg_.flight_dump_cycles, deadline_us_)) {
    return;
  }
  dumped_once_ = true;
  last_dump_cycle_ = cycle;
  ++flight_dump_count_;
  flight_dumps_total_.inc();
  journal_.push(support::EventKind::kFlightDump, cycle,
                static_cast<std::int64_t>(trigger));
}

}  // namespace djstar::engine
