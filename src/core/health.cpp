#include "djstar/core/health.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace djstar::core {
namespace {

struct Binding {
  HealthBoard* board = nullptr;
  unsigned worker = 0;
  const std::atomic<bool>* stop = nullptr;
  bool abandoned = false;
};

thread_local Binding tl_binding;

}  // namespace

const char* to_string(HealMode m) noexcept {
  switch (m) {
    case HealMode::kOff: return "off";
    case HealMode::kQuarantine: return "quarantine";
    case HealMode::kRespawn: return "respawn";
  }
  return "?";
}

const char* to_string(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kActive: return "active";
    case WorkerState::kFinished: return "finished";
    case WorkerState::kAborted: return "aborted";
    case WorkerState::kQuarantined: return "quarantined";
  }
  return "?";
}

HealMode parse_heal_mode(std::string_view text) {
  if (text == "off") return HealMode::kOff;
  if (text == "quarantine") return HealMode::kQuarantine;
  if (text == "respawn") return HealMode::kRespawn;
  throw std::invalid_argument("invalid heal mode \"" + std::string(text) +
                              "\" (expected off|quarantine|respawn)");
}

void HealthBoard::configure(unsigned width) {
  slots_ = std::make_unique<Slot[]>(width);
  width_ = width;
  dead_.store(0, std::memory_order_relaxed);
}

void HealthBoard::bind(HealthBoard* board, unsigned w,
                       const std::atomic<bool>* stop) noexcept {
  tl_binding = Binding{board, w, stop, false};
}

void HealthBoard::unbind() noexcept { tl_binding = Binding{}; }

bool HealthBoard::abandoned() noexcept { return tl_binding.abandoned; }

void HealthBoard::clear_abandoned() noexcept { tl_binding.abandoned = false; }

void HealthBoard::on_worker_fault(chaos::FaultKind k) noexcept {
  Binding& b = tl_binding;
  if (b.board == nullptr || b.worker == 0) return;
  b.board->worker_faults_.fetch_add(1, std::memory_order_relaxed);

  if (k == chaos::FaultKind::kWorkerAbort) {
    // The thread "dies": flag the slot so the medic credits our done
    // slot, then unwind out of the strategy body via abandoned().
    b.board->try_transition(b.worker, WorkerState::kActive,
                            WorkerState::kAborted);
    b.abandoned = true;
    return;
  }

  if (k == chaos::FaultKind::kStallForever) {
    // Wedge: no heartbeats, no progress — the shape of a blocking
    // syscall or priority inversion. Sleeping (not spinning) keeps the
    // wedge cheap and, crucially, exits when the medic quarantines the
    // slot or the team shuts down, so the thread stays joinable.
    while (b.board->state(b.worker) == WorkerState::kActive &&
           !(b.stop != nullptr &&
             b.stop->load(std::memory_order_acquire))) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    b.abandoned = true;
  }
}

}  // namespace djstar::core
