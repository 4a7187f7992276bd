// Shared pieces of the paced open-loop benchmark: arguments, the result
// record, measurement windows, host probes, the pacing clock, output
// digests, statistics and the Chrome trace of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/support/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace of the traced run ("" = none)
};

/// What one run measured. Metric maps are keyed by the names in
/// BENCHMARK.json; a layer that the workload bypasses is absent and is
/// reported as 0.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< why ops failed, one line each
  std::map<std::string, double> metrics;
  double steal_pct = 0;      ///< hypervisor steal over the timed windows
  unsigned peak_threads = 0;
  std::string windows;       ///< window_json() of the untraced windows
  std::vector<double> setup_s;  ///< every round's set-up time

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (errors.size() < 16) errors.push_back(why);
  }
  void sample_threads();
};

/// Ticks per measurement window: a quarter second of audio periods.
inline constexpr std::size_t kWindowTicks = 86;
/// Every workload runs `kRounds` rounds of set-up plus a paced stretch of
/// windows, so one run spans several thread placements and set-ups.
inline constexpr unsigned kRounds = 8;

/// One measurement window: kWindowTicks consecutive paced ticks of one
/// round. A tick is one APC on the DJ workloads and one fleet tick on
/// fleet_wire; an op is one output packet or frame.
struct Window {
  std::vector<double> latency_us;  ///< per op, from its due time
  std::vector<double> busy_us;     ///< per tick, the engine thread's work
  double cpu_us = 0;               ///< process CPU, pacing waits excluded
  double ops = 0;                  ///< what cpu_us is divided by
  double steal_pct = 0;            ///< /proc/stat steal share
  bool traced = false;
};

/// Windows per round for a run of `seconds`. A traced run needs at least
/// two: it traces every odd window, so that the traced and untraced
/// halves see the same positions in the round, and the difference of the
/// halves is the tracing overhead.
std::size_t windows_per_round(double seconds, bool trace) noexcept;

/// Which quantile of the windows' values the end-to-end figures take.
inline constexpr double kQuietQuantile = 0.05;

/// End-to-end metrics of the untraced windows. Each window gives its
/// latency p50 and p90 and its tick busy-time p50; the run reports the
/// kQuietQuantile quantile of each across its windows, the quietest
/// twentieth, so that the seconds in which the host stalls or starves the
/// VM do not set the figure, while no single window does either. CPU per
/// op is pooled over all untraced windows.
void window_metrics(const std::vector<Window>& ws,
                    std::map<std::string, double>& m);
/// trace.overhead_*: the traced windows' latency p50 and CPU per op minus
/// the untraced windows', each pooled over its windows.
void trace_overhead(const std::vector<Window>& ws,
                    std::map<std::string, double>& m);
/// The per-window values behind window_metrics(), as a JSON array of
/// [latency p50, latency p90, tick p50, cpu per op, steal %] rows.
std::string window_json(const std::vector<Window>& ws);

Result run_dj(const Args& a, bool observed);
Result run_fleet(const Args& a);

// ---- clock and pacing --------------------------------------------------------

/// CLOCK_MONOTONIC nanoseconds (the clock std::chrono::steady_clock and
/// the library's support::now() read).
std::int64_t now_ns() noexcept;
/// Wait on the calling thread until the absolute monotonic time `due_ns`:
/// sleep until shortly before it, then spin. A halted virtual CPU takes
/// from 30 us to several ms to wake, and the spin absorbs that delay
/// before the due time instead of after it. Returns the thread CPU time
/// the wait used, in us; the CPU metrics subtract it.
double pace_until(std::int64_t due_ns) noexcept;
/// One audio packet (128 frames at 44.1 kHz): the period of every paced
/// loop in this benchmark.
double period_ns() noexcept;

// ---- host probes -------------------------------------------------------------

double process_cpu_us() noexcept;
double thread_cpu_us() noexcept;
double peak_rss_mib();
unsigned thread_count();
unsigned online_cpus() noexcept;
std::string cpu_model();

/// Aggregate /proc/stat jiffies; steal share = Δsteal / Δtotal.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes cpu_times();
double steal_pct(const CpuTimes& a, const CpuTimes& b) noexcept;

// ---- inputs and output checks ------------------------------------------------

/// Deterministic child seed i of the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) noexcept;
/// 64-bit digest of raw sample bits, for bit-exact compares. A buffer's
/// digest equals that of its channels laid end to end.
std::uint64_t digest(std::span<const float> samples) noexcept;
std::uint64_t digest(const djstar::audio::AudioBuffer& buf) noexcept;

// ---- statistics --------------------------------------------------------------

// The benchmark keeps its own statistics rather than djstar::support's, so
// that what it reports cannot move with the code it measures.

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `v`.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v) noexcept;

/// Per-bucket counts of one registry histogram (+Inf last), and its
/// upper bounds; `add` accumulates the difference of two snapshots.
struct Buckets {
  std::vector<double> bounds;
  std::vector<double> counts;
  void add(const djstar::support::MetricsSnapshot& from,
           const djstar::support::MetricsSnapshot& to,
           const std::string& name);
  /// Quantile, linear within the bucket that holds it (0 when empty).
  double quantile(double q) const noexcept;
};
/// A counter's or gauge's value in a snapshot (0 when absent).
double snapshot_value(const djstar::support::MetricsSnapshot& s,
                      const std::string& name);

// ---- Chrome trace of the traced run ------------------------------------------

/// One span. Spans of one request share `id` (the cycle or tick index);
/// each name gets its own lane.
struct TraceEvent {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};
/// Write `events` as Chrome trace_event JSON. False on I/O error.
bool write_chrome(const std::string& path,
                  const std::vector<TraceEvent>& events);

}  // namespace perfbench
