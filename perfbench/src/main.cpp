// perfbench: the paced open-loop benchmark program.
//
//   perfbench --workload dj_paced|dj_observed|fleet_wire --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Prints one `record` line (host facts and failure reasons) and, last, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Exits 1 when any op failed, 2 on bad usage.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

extern char** environ;

namespace {

using perfbench::Args;
using perfbench::Result;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"latency_p50_us", "us"}, {"latency_p90_us", "us"},
    {"tick_p50_us", "us"},    {"cpu_us_per_op", "us"},
    {"peak_rss_mib", "MiB"},  {"setup_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"timecode.tp_us_mean", "us"},
    {"stretch.gp_us_mean", "us"},
    {"stretch.gp_us_p90", "us"},
    {"dsp.kernel_us_per_cycle", "us"},
    {"dsp.kernel_us.deckA", "us"},
    {"dsp.kernel_us.deckB", "us"},
    {"dsp.kernel_us.deckC", "us"},
    {"dsp.kernel_us.deckD", "us"},
    {"dsp.kernel_us.master", "us"},
    {"core.graph_us_p50", "us"},
    {"core.speedup", "x"},
    {"core.spins_per_cycle", "count"},
    {"core.steals_per_cycle", "count"},
    {"core.steal_success_ratio", "ratio"},
    {"core.sleeps_per_cycle", "count"},
    {"core.wakeups_per_cycle", "count"},
    {"support.post_cycle_us_p50", "us"},
    {"serve.dispatch_us_p50", "us"},
    {"serve.session_cycle_us_p50", "us"},
    {"serve.stage_queue_us_p50.realtime", "us"},
    {"serve.stage_queue_us_p50.standard", "us"},
    {"serve.stage_queue_us_p50.besteffort", "us"},
    {"serve.stage_execute_us_p50.realtime", "us"},
    {"serve.stage_execute_us_p50.standard", "us"},
    {"serve.stage_execute_us_p50.besteffort", "us"},
    {"net.engine_side_us_p50", "us"},
    {"net.flush_us_p50.realtime", "us"},
    {"net.flush_us_p50.standard", "us"},
    {"net.flush_us_p50.besteffort", "us"},
    {"net.bytes_per_frame", "B"},
    {"engine.latency_p99_us", "us"},
    {"engine.latency_max_us", "us"},
    {"engine.misses", "count"},
    {"serve.misses", "count"},
    {"gen.late_p50_us", "us"},
    {"gen.late_p99_us", "us"},
    {"host.steal_pct", "%"},
    {"host.threads", "count"},
    {"trace.overhead_latency_p50_us", "us"},
    {"trace.overhead_cpu_us_per_op", "us"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dj_paced|dj_observed|fleet_wire --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    return usage("missing argument");
  }
  if (!(a.seconds >= 1 && a.seconds <= 60)) {
    return usage("--seconds must be within [1, 60]");
  }
  // Every DJSTAR_* variable silently rewrites the configuration that the
  // library constructors read, so the measured program would not be the
  // one the workload names.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DJSTAR_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %.*s set\n",
                   static_cast<int>(std::strcspn(*e, "=")), *e);
      return 2;
    }
  }
  Result r;
  try {
    if (a.workload == "dj_paced") {
      r = perfbench::run_dj(a, false);
    } else if (a.workload == "dj_observed") {
      r = perfbench::run_dj(a, true);
    } else if (a.workload == "fleet_wire") {
      r = perfbench::run_fleet(a);
    } else {
      return usage(("unknown workload " + a.workload).c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  const unsigned cpus = perfbench::online_cpus();
  if (r.peak_threads > cpus) {
    r.fail(1, "peak thread count " + std::to_string(r.peak_threads) +
                  " exceeds " + std::to_string(cpus) + " CPUs");
  }
  r.metrics["host.steal_pct"] = r.steal_pct;
  r.metrics["host.threads"] = r.peak_threads;

  std::string errors = "[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? "," : "") + json_string(r.errors[i]);
  }
  std::string setups = "[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    setups += (i ? "," : "") + std::to_string(r.setup_s[i]);
  }
  std::printf(
      "record {\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"nproc\":%u,"
      "\"cpu_model\":%s,\"steal_pct\":%.4f,\"threads\":%u,\"errors\":%s],"
      "\"setup_s\":%s],\"windows\":%s}\n",
      json_string(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0, cpus,
      json_string(perfbench::cpu_model()).c_str(), r.steal_pct,
      r.peak_threads, errors.c_str(), setups.c_str(),
      r.windows.empty() ? "[]" : r.windows.c_str());

  std::string metrics;
  const auto emit = [&](const Metric& m) {
    const auto it = r.metrics.find(m.name);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name,
                  it == r.metrics.end() ? 0.0 : it->second, m.unit);
    metrics += buf;
  };
  if (a.trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  const bool correct = r.failed == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
