#include "bench.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <time.h>

namespace perfbench {

void Result::sample_threads() {
  peak_threads = std::max(peak_threads, thread_count());
}

namespace {

double clock_us(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace

// ---- clock and pacing --------------------------------------------------------

std::int64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double pace_until(std::int64_t due_ns) noexcept {
  constexpr std::int64_t kSpinNs = 1'000'000;
  const double cpu0 = clock_us(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t wake = due_ns - kSpinNs;
  if (now_ns() < wake) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wake % 1'000'000'000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (now_ns() < due_ns) {
  }
  return clock_us(CLOCK_THREAD_CPUTIME_ID) - cpu0;
}

double period_ns() noexcept { return djstar::audio::kDeadlineUs * 1e3; }

std::size_t windows_per_round(double seconds, bool trace) noexcept {
  return std::max<std::size_t>(
      trace ? 2 : 1, static_cast<std::size_t>(seconds * 1e9 / period_ns() /
                                              kRounds / kWindowTicks));
}

// ---- host probes -------------------------------------------------------------

namespace {

/// A "Name:   value" field of /proc/self/status (0 when absent).
unsigned long status_field(const char* name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(name);
  while (std::getline(in, line)) {
    if (line.compare(0, n, name) == 0 && line.size() > n && line[n] == ':') {
      return std::stoul(line.substr(n + 1));
    }
  }
  return 0;
}

}  // namespace

double process_cpu_us() noexcept { return clock_us(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_us() noexcept { return clock_us(CLOCK_THREAD_CPUTIME_ID); }

// VmHWM rather than getrusage(): ru_maxrss survives execve, so it would
// report the launching process's peak when that was larger.
double peak_rss_mib() { return static_cast<double>(status_field("VmHWM")) / 1024.0; }

unsigned thread_count() {
  return static_cast<unsigned>(status_field("Threads"));
}

unsigned online_cpus() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(" \t", colon + 1));
      }
    }
  }
  return "unknown";
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // aggregate "cpu" line
  CpuTimes t;
  for (unsigned field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) noexcept {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

// ---- inputs and output checks ------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) noexcept {
  std::uint64_t z = seed + (i + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t kDigestSeed = 0x243F6A8885A308D3ull;

std::uint64_t digest_into(std::uint64_t h,
                          std::span<const float> samples) noexcept {
  for (const float s : samples) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &s, sizeof bits);
    h = (h ^ bits) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

std::uint64_t digest(std::span<const float> samples) noexcept {
  return digest_into(kDigestSeed, samples);
}

std::uint64_t digest(const djstar::audio::AudioBuffer& buf) noexcept {
  std::uint64_t h = kDigestSeed;
  for (std::size_t ch = 0; ch < buf.channels(); ++ch) {
    h = digest_into(h, buf.channel(ch));
  }
  return h;
}

// ---- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) noexcept {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

/// The quietest twentieth: the 5th percentile, across the untraced
/// windows, of what each window gives.
template <typename F>
double quiet(const std::vector<Window>& ws, F f) {
  std::vector<double> v;
  for (const Window& w : ws) {
    if (!w.traced) v.push_back(f(w));
  }
  return quantile(std::move(v), kQuietQuantile);
}

}  // namespace

void window_metrics(const std::vector<Window>& ws,
                    std::map<std::string, double>& m) {
  m["latency_p50_us"] =
      quiet(ws, [](const Window& w) { return quantile(w.latency_us, 0.5); });
  m["latency_p90_us"] =
      quiet(ws, [](const Window& w) { return quantile(w.latency_us, 0.9); });
  m["tick_p50_us"] =
      quiet(ws, [](const Window& w) { return quantile(w.busy_us, 0.5); });
  double cpu = 0, ops = 0;
  for (const Window& w : ws) {
    if (w.traced) continue;
    cpu += w.cpu_us;
    ops += w.ops;
  }
  m["cpu_us_per_op"] = cpu / ops;
}

void trace_overhead(const std::vector<Window>& ws,
                    std::map<std::string, double>& m) {
  std::vector<double> lat[2];
  double cpu[2] = {0, 0}, ops[2] = {0, 0};
  for (const Window& w : ws) {
    lat[w.traced].insert(lat[w.traced].end(), w.latency_us.begin(),
                         w.latency_us.end());
    cpu[w.traced] += w.cpu_us;
    ops[w.traced] += w.ops;
  }
  m["trace.overhead_latency_p50_us"] =
      quantile(lat[1], 0.5) - quantile(lat[0], 0.5);
  m["trace.overhead_cpu_us_per_op"] = cpu[1] / ops[1] - cpu[0] / ops[0];
}

std::string window_json(const std::vector<Window>& ws) {
  std::string out = "[";
  char buf[160];
  for (const Window& w : ws) {
    if (w.traced) continue;
    std::snprintf(buf, sizeof buf, "%s[%.1f,%.1f,%.1f,%.2f,%.1f]",
                  out.size() > 1 ? "," : "", quantile(w.latency_us, 0.5),
                  quantile(w.latency_us, 0.9), quantile(w.busy_us, 0.5),
                  w.cpu_us / w.ops, w.steal_pct);
    out += buf;
  }
  return out + "]";
}

namespace {

const djstar::support::MetricValue* find_metric(
    const djstar::support::MetricsSnapshot& s, const std::string& name) {
  for (const auto& v : s.metrics) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

}  // namespace

void Buckets::add(const djstar::support::MetricsSnapshot& from,
                  const djstar::support::MetricsSnapshot& to,
                  const std::string& name) {
  const auto* a = find_metric(from, name);
  const auto* b = find_metric(to, name);
  if (a == nullptr || b == nullptr) return;
  bounds = b->bounds;
  counts.resize(b->bucket_counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] += static_cast<double>(b->bucket_counts[i] - a->bucket_counts[i]);
  }
}

double Buckets::quantile(double q) const noexcept {
  double total = 0;
  for (const double c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double rank = q * total;
  double below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (below + counts[i] >= rank && counts[i] > 0) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * (rank - below) / counts[i];
    }
    below += counts[i];
  }
  return bounds.back();
}

double snapshot_value(const djstar::support::MetricsSnapshot& s,
                      const std::string& name) {
  const auto* v = find_metric(s, name);
  return v == nullptr ? 0.0 : v->value;
}

// ---- Chrome trace of the traced run ------------------------------------------

bool write_chrome(const std::string& path,
                  const std::vector<TraceEvent>& events) {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<std::string> lanes;
  std::int64_t t0 = 0;
  for (const TraceEvent& e : events) {
    if (t0 == 0 || e.start_ns < t0) t0 = e.start_ns;
  }
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    auto lane = std::find(lanes.begin(), lanes.end(), e.name);
    if (lane == lanes.end()) lane = lanes.insert(lanes.end(), e.name);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  i == 0 ? "" : ",", e.name,
                  static_cast<int>(lane - lanes.begin()),
                  static_cast<double>(e.start_ns - t0) / 1e3,
                  static_cast<double>(e.end_ns - e.start_ns) / 1e3,
                  static_cast<unsigned long long>(e.id));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
