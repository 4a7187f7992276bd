#include "djstar/engine/supervisor.hpp"

#include <chrono>
#include <cmath>

#include "djstar/support/assert.hpp"

namespace djstar::engine {
namespace {

bool all_finite(const audio::AudioBuffer& buf) noexcept {
  for (float s : buf.raw()) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

}  // namespace

const char* to_string(DegradationLevel level) noexcept {
  switch (level) {
    case DegradationLevel::kFull: return "full";
    case DegradationLevel::kBypassFx: return "bypass-fx";
    case DegradationLevel::kNoStretch: return "no-stretch";
    case DegradationLevel::kSequentialFallback: return "sequential-fallback";
    case DegradationLevel::kSafeMode: return "safe-mode";
  }
  return "?";
}

const char* to_string(CycleOutcome outcome) noexcept {
  switch (outcome) {
    case CycleOutcome::kClean: return "clean";
    case CycleOutcome::kOverrun: return "overrun";
    case CycleOutcome::kFault: return "fault";
    case CycleOutcome::kCancelled: return "cancelled";
    case CycleOutcome::kNanOutput: return "nan-output";
    case CycleOutcome::kSafeMode: return "safe-mode";
  }
  return "?";
}

CycleSupervisor::CycleSupervisor(core::CompiledGraph& graph,
                                 SupervisorConfig cfg)
    : graph_(graph), cfg_(cfg) {
  DJSTAR_ASSERT_MSG(cfg_.deadline_us > 0, "deadline must be positive");
  transitions_.reserve(64);
  if (cfg_.use_watchdog) {
    wd_thread_ = std::thread([this] { watchdog_main(); });
  }
}

CycleSupervisor::~CycleSupervisor() {
  if (wd_thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lk(wd_mutex_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    wd_thread_.join();
  }
}

SupervisorStats CycleSupervisor::stats() const noexcept {
  SupervisorStats s = stats_;
  s.watchdog_cancels = watchdog_cancels_.load(std::memory_order_relaxed);
  return s;
}

void CycleSupervisor::note_worker_quarantine(std::uint64_t n,
                                             std::uint64_t cycle) {
  stats_.worker_quarantines += n;
  if (journal_ != nullptr) {
    journal_->push(support::EventKind::kWorkerQuarantine, cycle,
                   static_cast<std::int64_t>(stats_.worker_quarantines));
  }
}

void CycleSupervisor::note_worker_respawn(std::uint64_t n,
                                          std::uint64_t cycle) {
  stats_.worker_respawns += n;
  if (journal_ != nullptr) {
    journal_->push(support::EventKind::kWorkerRespawn, cycle,
                   static_cast<std::int64_t>(stats_.worker_respawns));
  }
}

void CycleSupervisor::watchdog_arm() {
  if (!cfg_.use_watchdog) return;
  {
    const std::lock_guard<std::mutex> lk(wd_mutex_);
    wd_armed_ = true;
    ++wd_gen_;
    wd_deadline_ = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double, std::micro>(
                           cfg_.cancel_budget_us));
  }
  wd_cv_.notify_one();
}

void CycleSupervisor::watchdog_disarm() noexcept {
  if (!cfg_.use_watchdog) return;
  const std::lock_guard<std::mutex> lk(wd_mutex_);
  wd_armed_ = false;
  ++wd_gen_;
  // No notify: the generation bump already invalidates the pending
  // wait_until (it re-checks the predicate at its own deadline, and the
  // next arm's notify arrives first anyway). Skipping the wake halves
  // the watchdog context switches on the fault-free fast path.
}

void CycleSupervisor::watchdog_main() {
  std::unique_lock<std::mutex> lk(wd_mutex_);
  for (;;) {
    wd_cv_.wait(lk, [&] { return wd_stop_ || wd_armed_; });
    if (wd_stop_) return;
    const std::uint64_t gen = wd_gen_;
    const auto deadline = wd_deadline_;
    const bool changed = wd_cv_.wait_until(
        lk, deadline, [&] { return wd_stop_ || wd_gen_ != gen; });
    if (wd_stop_) return;
    if (changed) continue;  // disarmed or re-armed for the next cycle
    // Timed out while the armed generation is still current: the cycle
    // blew its budget. Cancel it — executors drain and return.
    if (wd_armed_ && wd_gen_ == gen) {
      graph_.request_cancel();
      watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
      if (journal_ != nullptr) {
        journal_->push(support::EventKind::kWatchdogCancel, stats_.cycles, 0,
                       0, cfg_.cancel_budget_us);
      }
      wd_armed_ = false;
    }
  }
}

CycleOutcome CycleSupervisor::supervise_cycle(const CycleBreakdown& c,
                                              bool missed,
                                              const audio::AudioBuffer& out) {
  ++stats_.cycles;

  CycleOutcome outcome = CycleOutcome::kClean;
  if (graph_.cycle_failed()) {
    if (graph_.fault_node() >= 0) {
      outcome = CycleOutcome::kFault;
      ++stats_.faults;
    } else {
      outcome = CycleOutcome::kCancelled;
      ++stats_.cancels;
    }
  } else if (!all_finite(out)) {
    outcome = CycleOutcome::kNanOutput;
    ++stats_.nan_patches;
  } else if (missed) {
    outcome = CycleOutcome::kOverrun;
    ++stats_.overruns;
  }

  // Output: overruns still produced valid audio; faults/cancels drained
  // mid-graph and NaN packets are unusable — repeat the last good one.
  if (outcome == CycleOutcome::kClean || outcome == CycleOutcome::kOverrun) {
    emit_real(out);
  } else {
    emit_fallback();
  }

  // Ladder.
  switch (outcome) {
    case CycleOutcome::kFault:
    case CycleOutcome::kCancelled:
    case CycleOutcome::kNanOutput:
      overrun_streak_ = 0;
      clean_streak_ = 0;
      if (++fault_streak_ >= cfg_.fault_trip) {
        fault_streak_ = 0;
        step_down(outcome);
      }
      break;
    case CycleOutcome::kOverrun:
      fault_streak_ = 0;
      clean_streak_ = 0;
      if (++overrun_streak_ >= cfg_.overrun_trip) {
        overrun_streak_ = 0;
        step_down(outcome);
      }
      break;
    default:
      ++stats_.clean_cycles;
      overrun_streak_ = 0;
      fault_streak_ = 0;
      note_clean(c.total_us());
      break;
  }
  return outcome;
}

CycleOutcome CycleSupervisor::supervise_safe_mode_cycle(
    const CycleBreakdown& c) {
  ++stats_.cycles;
  emit_fallback();
  // Safe-mode cycles barely compute, so they always have margin; the
  // clean streak is what eventually lets the ladder try real cycles
  // again (one rung up, to the sequential fallback).
  note_clean(c.total_us());
  return CycleOutcome::kSafeMode;
}

bool CycleSupervisor::force_degrade() {
  if (level_ == DegradationLevel::kSafeMode) return false;
  overrun_streak_ = 0;
  fault_streak_ = 0;
  step_down(CycleOutcome::kOverrun);
  return true;
}

void CycleSupervisor::note_clean(double total_us) {
  if (level_ == DegradationLevel::kFull) {
    clean_streak_ = 0;
    return;
  }
  if (total_us < cfg_.recover_margin * cfg_.deadline_us) {
    if (++clean_streak_ >= cfg_.recover_cycles) {
      clean_streak_ = 0;
      step_up();
    }
  } else {
    clean_streak_ = 0;  // on time, but without margin: don't risk it
  }
}

void CycleSupervisor::step_down(CycleOutcome reason) {
  if (level_ == DegradationLevel::kSafeMode) return;  // floor
  const auto from = level_;
  level_ = static_cast<DegradationLevel>(static_cast<unsigned>(level_) + 1);
  clean_streak_ = 0;
  transitions_.push_back({stats_.cycles, from, level_, reason});
  if (journal_ != nullptr) {
    journal_->push(support::EventKind::kDegrade, stats_.cycles,
                   static_cast<std::int64_t>(from),
                   static_cast<std::int64_t>(level_));
  }
}

void CycleSupervisor::step_up() {
  DJSTAR_ASSERT(level_ != DegradationLevel::kFull);
  const auto from = level_;
  level_ = static_cast<DegradationLevel>(static_cast<unsigned>(level_) - 1);
  ++stats_.recoveries;
  transitions_.push_back({stats_.cycles, from, level_, CycleOutcome::kClean});
  if (journal_ != nullptr) {
    journal_->push(support::EventKind::kRecover, stats_.cycles,
                   static_cast<std::int64_t>(from),
                   static_cast<std::int64_t>(level_));
  }
}

void CycleSupervisor::save_tail() {
  const std::size_t last = safe_out_.frames() - 1;
  for (std::size_t ch = 0; ch < safe_out_.channels(); ++ch) {
    last_tail_[ch] = safe_out_.at(ch, last);
  }
}

void CycleSupervisor::splice_ramp() {
  const std::size_t ramp =
      std::min(cfg_.splice_ramp_frames, safe_out_.frames());
  if (ramp == 0) return;
  for (std::size_t ch = 0; ch < safe_out_.channels(); ++ch) {
    auto samples = safe_out_.channel(ch);
    const float tail = last_tail_[ch];
    for (std::size_t i = 0; i < ramp; ++i) {
      const float t =
          static_cast<float>(i + 1) / static_cast<float>(ramp);
      samples[i] = t * samples[i] + (1.0f - t) * tail;
    }
  }
}

void CycleSupervisor::emit_real(const audio::AudioBuffer& out) {
  safe_out_.copy_from(out);
  if (last_was_fallback_) splice_ramp();  // fallback -> real transition
  save_tail();
  last_good_.copy_from(out);
  fallback_gain_ = 1.0f;
  last_was_fallback_ = false;
}

void CycleSupervisor::emit_fallback() {
  ++stats_.fallback_emissions;
  fallback_gain_ *= cfg_.fallback_decay;
  safe_out_.copy_from(last_good_);
  safe_out_.apply_gain(fallback_gain_);
  // A repeat restarts the packet, so there is always a discontinuity
  // against whatever we emitted last — ramp it away.
  splice_ramp();
  save_tail();
  last_was_fallback_ = true;
}

}  // namespace djstar::engine
