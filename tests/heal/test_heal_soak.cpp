// Nightly chaos soak (label: soak): long-run worker-fault fuzzing over
// every parallel strategy with healing armed. DJSTAR_SOAK_CYCLES scales
// the run (nightly CI sets 10000; the default keeps local runs short).
// The contract: no hang, no crash, exactly-once node execution every
// cycle, and a team that keeps replacing its dead.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random_dag.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/team.hpp"
#include "djstar/engine/profiler.hpp"
#include "djstar/support/attrib.hpp"
#include "djstar/support/env.hpp"
#include "djstar/support/flight.hpp"
#include "stress/stress_util.hpp"

namespace dc = djstar::core;
namespace dt = djstar::test;

namespace {

// A set DJSTAR_SOAK_CYCLES must be a positive decimal count; anything
// else (blank, "10k", "banana", 0) throws before the soak starts.
int soak_cycles() {
  const auto env = djstar::support::env::get("DJSTAR_SOAK_CYCLES", "count");
  if (!env) return dt::scaled(600);
  const auto n = djstar::support::env::parse_uint(*env, 1u << 30);
  if (!n || *n == 0) {
    throw std::invalid_argument(
        "DJSTAR_SOAK_CYCLES: expected a positive cycle count, got '" + *env +
        "'");
  }
  return static_cast<int>(*n);
}

// Where a failing soak run drops its flight-recorder trace. Nightly CI
// points this at a workspace directory and uploads it as an artifact;
// locally it falls back to the gtest temp dir. A set but blank value
// throws; both knobs are read before the soak starts.
std::string soak_dump_dir() {
  return djstar::support::env::get("DJSTAR_SOAK_DUMP_DIR", "path")
      .value_or(testing::TempDir());
}

constexpr dc::Strategy kSoakStrategies[] = {
    dc::Strategy::kBusyWait, dc::Strategy::kSleep,
    dc::Strategy::kWorkStealing, dc::Strategy::kSharedQueue};

std::string soak_name(const testing::TestParamInfo<dc::Strategy>& info) {
  return std::string(dc::to_string(info.param));
}

class HealSoak : public testing::TestWithParam<dc::Strategy> {};

}  // namespace

TEST_P(HealSoak, SurvivesMixedWorkerAndNodeFaultFuzzing) {
  const dc::Strategy strategy = GetParam();
  const int cycles = soak_cycles();
  const std::string dump_dir = soak_dump_dir();
  // Each stall_forever costs roughly a heartbeat budget of wall time;
  // budget the watchdog generously but finitely.
  dt::Watchdog watchdog(dt::scaled_timeout(60 + cycles / 10),
                        "heal soak " + std::string(dc::to_string(strategy)));

  dt::RandomDag dag(40, 0.12, 0x50AC + static_cast<int>(strategy));
  dc::CompiledGraph cg(dag.g);

  // Worker faults layered on top of node faults: the heal path must
  // compose with throw/latency/stall injection, not just run alone.
  dc::chaos::FaultPlan plan;
  plan.seed = 0x50AC5EED + static_cast<std::uint64_t>(cycles);
  plan.stall_forever_permille = 4;
  plan.abort_permille = 8;
  plan.latency_permille = 10;
  plan.latency_min_us = 5.0;
  plan.latency_max_us = 40.0;
  cg.arm_faults(plan);

  // Flight recorder armed for the whole soak: when an exactly-once
  // violation surfaces, the last cycles of per-worker spans are dumped
  // for the nightly job to upload, so the failure is debuggable without
  // reproducing a 10k-cycle chaos run.
  djstar::support::FlightRecorder flight;
  flight.configure(4, 4096);

  dc::ExecOptions opts;
  opts.threads = 4;
  opts.flight = &flight;
  opts.heal.mode = dc::HealMode::kRespawn;
  opts.heal.heartbeat_budget_us = dt::kTsan || dt::kAsan ? 20000.0 : 1500.0;
  opts.heal.check_interval_us = 100.0;
  const auto exec = dc::make_executor(strategy, cg, opts);

  // Ranked blame alongside the flight dump (DESIGN.md §14): healthy
  // cycles fold EWMA baselines, so on a failure the report names the
  // nodes that blew past their usual cost — the nightly job uploads it
  // next to the trace, turning "which of 40 chaos-ridden nodes broke
  // this" into a sorted list.
  namespace attrib = djstar::support::attrib;
  attrib::CriticalPathAnalyzer analyzer(
      djstar::engine::predecessor_lists(dag.g));
  attrib::BlameTracker blame;
  std::vector<djstar::support::TraceSpan> spans;

  for (int c = 0; c < cycles; ++c) {
    flight.begin_cycle();
    dag.reset();
    exec->run_cycle();
    flight.collect_cycle(flight.cycle(), spans);
    bool clean = true;
    for (std::size_t i = 0; i < dag.done.size(); ++i) {
      if (dag.done[i].load() != 1) clean = false;
    }
    const auto& at =
        analyzer.analyze(spans, static_cast<std::uint64_t>(c));
    // A broken cycle is a "miss": baselines stay clean and last() becomes
    // the ranked report for this cycle's dump.
    blame.on_cycle(at, spans, /*missed=*/!clean, /*deadline_us=*/0.0);
    if (clean) continue;

    const std::string base =
        dump_dir + "/soak_" + std::string(dc::to_string(strategy));
    const std::string dump = base + ".flight.json";
    flight.dump_chrome_trace(dump, 64, 3000.0);
    const std::string blame_path = base + ".blame.json";
    std::string json;
    attrib::append_json(json, blame.last());
    std::ofstream(blame_path) << json;
    for (std::size_t i = 0; i < dag.done.size(); ++i) {
      if (dag.done[i].load() != 1) {
        FAIL() << dc::to_string(strategy) << ": node " << i << " ran "
               << dag.done[i].load() << "x in cycle " << c
               << "; flight dump at " << dump << ", ranked blame at "
               << blame_path;
      }
    }
  }

  const dc::HealStats hs = exec->team()->heal_stats();
  // Fault rates guarantee plenty of worker faults over a soak run; a
  // zero here means the injection pipeline silently broke.
  EXPECT_GT(hs.worker_faults, 0u);
  EXPECT_GE(hs.quarantines, 1u);
  EXPECT_GE(hs.respawns, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllParallelStrategies, HealSoak,
                         testing::ValuesIn(kSoakStrategies), soak_name);
