#include "djstar/support/journal.hpp"

#include <cstdio>
#include <fstream>

namespace djstar::support {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::kDeadlineMiss: return "deadline-miss";
    case EventKind::kDegrade: return "degrade";
    case EventKind::kRecover: return "recover";
    case EventKind::kWatchdogCancel: return "watchdog-cancel";
    case EventKind::kFaultInjected: return "fault-injected";
    case EventKind::kAdmit: return "admit";
    case EventKind::kQueuePark: return "queue-park";
    case EventKind::kReject: return "reject";
    case EventKind::kShed: return "shed";
    case EventKind::kOverload: return "overload";
    case EventKind::kSessionClosed: return "session-closed";
    case EventKind::kFlightDump: return "flight-dump";
    case EventKind::kWorkerQuarantine: return "worker-quarantine";
    case EventKind::kWorkerRespawn: return "worker-respawn";
    case EventKind::kBreakerTrip: return "breaker-trip";
    case EventKind::kBreakerProbe: return "breaker-probe";
    case EventKind::kBreakerClose: return "breaker-close";
    case EventKind::kSessionRestored: return "session-restored";
    case EventKind::kNetConnect: return "net-connect";
    case EventKind::kNetDisconnect: return "net-disconnect";
    case EventKind::kNetProtocolError: return "net-protocol-error";
    case EventKind::kNetBackpressure: return "net-backpressure";
    case EventKind::kNetAudioDrop: return "net-audio-drop";
    case EventKind::kBlameReport: return "blame-report";
    case EventKind::kBlame: return "blame";
    case EventKind::kSloAlert: return "slo-alert";
    case EventKind::kSloRecover: return "slo-recover";
  }
  return "?";
}

EventJournal::EventJournal(std::size_t capacity)
    : buf_size_(round_up_pow2(capacity < 2 ? 2 : capacity)),
      mask_(buf_size_ - 1),
      slots_(std::make_unique<Slot[]>(buf_size_)) {
  // Vyukov sequence discipline: slot i is writable when seq == ticket,
  // readable when seq == ticket + 1.
  for (std::size_t i = 0; i < buf_size_; ++i) {
    slots_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool EventJournal::push(EventKind kind, std::uint64_t cycle, std::int64_t a,
                        std::int64_t b, double value) noexcept {
  std::uint64_t ticket = enqueue_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[ticket & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(ticket);
    if (diff == 0) {
      if (enqueue_.compare_exchange_weak(ticket, ticket + 1,
                                         std::memory_order_relaxed)) {
        slot.ev.seq = ticket;
        slot.ev.t_us = now_us();
        slot.ev.kind = kind;
        slot.ev.cycle = cycle;
        slot.ev.a = a;
        slot.ev.b = b;
        slot.ev.value = value;
        slot.seq.store(ticket + 1, std::memory_order_release);
        published_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // CAS failed: `ticket` was reloaded, retry with the new value.
    } else if (diff < 0) {
      // The slot one lap ahead is still unread: the ring is full.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      // Another producer claimed this ticket; chase the cursor.
      ticket = enqueue_.load(std::memory_order_relaxed);
    }
  }
}

std::size_t EventJournal::drain(std::vector<Event>& out) {
  std::size_t n = 0;
  for (;;) {
    Slot& slot = slots_[dequeue_ & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != dequeue_ + 1) break;  // next slot not yet published
    out.push_back(slot.ev);
    // Free the slot for the producer one lap ahead.
    slot.seq.store(dequeue_ + buf_size_, std::memory_order_release);
    ++dequeue_;
    ++n;
  }
  return n;
}

std::vector<Event> EventJournal::drain_all() {
  std::vector<Event> out;
  drain(out);
  return out;
}

std::string to_jsonl(std::span<const Event> events) {
  std::string out;
  out.reserve(events.size() * 120);
  char buf[256];
  for (const Event& e : events) {
    std::snprintf(buf, sizeof buf,
                  "{\"seq\":%llu,\"t_us\":%.3f,\"kind\":\"%s\","
                  "\"cycle\":%llu,\"a\":%lld,\"b\":%lld,\"value\":%.3f}\n",
                  static_cast<unsigned long long>(e.seq), e.t_us,
                  to_string(e.kind), static_cast<unsigned long long>(e.cycle),
                  static_cast<long long>(e.a), static_cast<long long>(e.b),
                  e.value);
    out += buf;
  }
  return out;
}

bool write_jsonl(const std::string& path, std::span<const Event> events) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << to_jsonl(events);
  return static_cast<bool>(f);
}

}  // namespace djstar::support
