// djstar/support/journal.hpp
// Structured event journal (DESIGN.md §10).
//
// The degradation ladder, the watchdog, fault injection, and the serve
// host all make discrete decisions that used to vanish once their local
// log vector was discarded. The journal gives them one bounded, typed,
// timestamped stream: producers push fixed-size Event records through a
// lock-free bounded MPSC ring (Vyukov-style sequence slots — no locks,
// no allocation, drops counted when full), and a single consumer drains
// between cycles or post-mortem, exporting JSONL.
//
// Real-time safety: push() is O(1), allocation-free, and never blocks —
// under pathological contention a producer retries its CAS, and a full
// ring drops (counted) rather than stalling the audio path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "djstar/support/time.hpp"

namespace djstar::support {

/// The event taxonomy. One enum across layers so a merged fleet journal
/// stays sortable and greppable.
enum class EventKind : std::uint8_t {
  kDeadlineMiss = 0,  ///< APC total exceeded the deadline (a=level, value=total_us)
  kDegrade,           ///< ladder stepped down (a=from, b=to)
  kRecover,           ///< ladder stepped up (a=from, b=to)
  kWatchdogCancel,    ///< watchdog cancelled a stuck cycle
  kFaultInjected,     ///< chaos fault fired (a=node, b=FaultKind)
  kAdmit,             ///< session admitted (a=session id)
  kQueuePark,         ///< session parked in the admission queue (a=id)
  kReject,            ///< session rejected (a=id)
  kShed,              ///< session evicted by the overload handler (a=id)
  kOverload,          ///< overload handler tripped (value=elapsed_us)
  kSessionClosed,     ///< session closed by its owner (a=id)
  kFlightDump,        ///< flight recorder dumped (a=trigger EventKind)
  kWorkerQuarantine,  ///< medic quarantined a worker (a=total quarantines)
  kWorkerRespawn,     ///< replacement worker rejoined (a=total respawns)
  kBreakerTrip,       ///< session circuit breaker opened (a=id, b=failures)
  kBreakerProbe,      ///< half-open probe launched (a=id, value=backoff_us)
  kBreakerClose,      ///< breaker closed after clean probes (a=id)
  kSessionRestored,   ///< tripped session rebuilt from snapshot (a=id)
  kNetConnect,        ///< net front-end accepted a connection (a=fd)
  kNetDisconnect,     ///< connection closed (a=fd, b=1 when server-initiated)
  kNetProtocolError,  ///< malformed frame stream (a=fd)
  kNetBackpressure,   ///< realtime subscriber stalled; disconnecting (a=fd)
  kNetAudioDrop,      ///< drop-oldest shed audio frames (a=fd, b=frames)
  kBlameReport,       ///< miss attribution header (a=top node, b=top worker,
                      ///< value=cp wait us); ranked entries follow as kBlame
  kBlame,             ///< one ranked blame entry (a=node, b=worker,
                      ///< value=delta vs EWMA baseline, us)
  kSloAlert,          ///< SLO escalated (a=scope: session id, 0=fleet/engine,
                      ///< -1-q=QoS class q; b=new state 1=warn 2=page,
                      ///< value=budget remaining)
  kSloRecover,        ///< SLO de-escalated (a=scope, b=new state,
                      ///< value=budget remaining)
};

const char* to_string(EventKind k) noexcept;

/// One journal record. Fixed-size POD: producers fill the payload
/// fields, the journal stamps seq and the monotonic timestamp.
struct Event {
  std::uint64_t seq = 0;    ///< publish order (gap-free absent drops)
  double t_us = 0;          ///< monotonic us since journal construction
  EventKind kind = EventKind::kDeadlineMiss;
  std::uint64_t cycle = 0;  ///< producer's cycle / fleet tick index
  std::int64_t a = 0;       ///< payload (see EventKind comments)
  std::int64_t b = 0;
  double value = 0;
};

/// Bounded multi-producer single-consumer event log.
class EventJournal {
 public:
  /// `capacity` is rounded up to a power of two; all slots are
  /// preallocated here, never on push.
  explicit EventJournal(std::size_t capacity = 4096);

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Publish an event. Lock-free and allocation-free; callable from any
  /// thread (workers, the watchdog, control planes). Returns false when
  /// the ring is full (the drop is counted).
  bool push(EventKind kind, std::uint64_t cycle, std::int64_t a = 0,
            std::int64_t b = 0, double value = 0) noexcept;

  /// Pop every published event, in publish order, into `out` (appended).
  /// Single consumer only. Returns the number drained.
  std::size_t drain(std::vector<Event>& out);

  /// Convenience: drain into a fresh vector.
  std::vector<Event> drain_all();

  std::size_t capacity() const noexcept { return buf_size_; }
  /// Events rejected because the ring was full.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events successfully published since construction.
  std::uint64_t published() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }

  /// Monotonic microseconds since this journal was constructed (the
  /// timebase of Event::t_us).
  double now_us() const noexcept { return since_us(t0_); }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    Event ev;
  };

  std::size_t buf_size_ = 0;  // power of two
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> enqueue_{0};
  alignas(64) std::uint64_t dequeue_ = 0;  // single consumer
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> published_{0};
  Clock::time_point t0_ = now();
};

/// Render events as JSONL: one {"seq":..,"t_us":..,"kind":"..",...}
/// object per line.
std::string to_jsonl(std::span<const Event> events);

/// Write events as JSONL to `path`. Returns false on I/O failure.
bool write_jsonl(const std::string& path, std::span<const Event> events);

}  // namespace djstar::support
