// bench/sec3_hotspots.cpp
// Reproduces the paper's §III-B dynamic analysis: where the APC's time
// goes. Paper (share of total runtime, APC = 88%): within the APC,
// preprocessing 33%, audio graph 38%, timecode decoding 16%, the rest
// various calculations and buffer administration.
//
// The paper ran TP and GP on one thread; djstar runs each deck's TP+GP
// as a graph node, so the split is printed twice: on the sequential
// engine (the paper's serial APC) and on the busy x4 team, where TP and
// GP are the time the four deck jobs hold the cycle up.
#include "bench_common.hpp"

namespace {

using namespace djstar;

/// Phase means of `iters` cycles after a warm-up.
struct Split {
  double tp, gp, graph, vc, total;
};

Split measure(core::Strategy strategy, unsigned threads, std::size_t iters) {
  engine::EngineConfig cfg;
  cfg.strategy = strategy;
  cfg.threads = threads;
  engine::AudioEngine e(cfg);
  e.run_cycles(30);
  e.monitor().reset();
  e.run_cycles(iters);
  const auto& m = e.monitor();
  return {m.tp().mean(), m.gp().mean(), m.graph().mean(), m.vc().mean(),
          m.total().mean()};
}

}  // namespace

int main() {
  bench::banner("§III-B — hotspot analysis of the audio processing cycle",
                "APC: 33% preprocessing (GP), 38% audio graph, 16% timecode (TP)");

  const std::size_t iters = bench::measure_iters();
  const Split seq = measure(core::Strategy::kSequential, 1, iters);
  const Split busy = measure(core::Strategy::kBusyWait, 4, iters);

  std::printf("measured on this host over %zu cycles each:\n\n", iters);
  std::printf("  phase                         sequential         busy x4"
              "          paper share\n");
  std::printf("                                mean (us)  share   mean (us)"
              "  share\n");
  const auto row = [&](const char* name, double Split::*phase,
                       const char* paper) {
    std::printf("  %-28s %9.1f  %5.1f%%  %9.1f  %5.1f%%   %s\n", name,
                seq.*phase, 100.0 * seq.*phase / seq.total, busy.*phase,
                100.0 * busy.*phase / busy.total, paper);
  };
  row("timecode processing  (TP)", &Split::tp, "16%");
  row("graph preprocessing  (GP)", &Split::gp, "33%");
  row("task graph           (Graph)", &Split::graph, "38%");
  row("various calculations (VC)", &Split::vc, "~13% (incl. misc)");
  std::printf("  %-28s %9.1f  100.0%%  %9.1f  100.0%%\n", "total APC",
              seq.total, busy.total);

  std::printf("\n  deadline: %.1f us per packet (BS=128 @ 44.1 kHz)\n",
              audio::kDeadlineUs);
  std::printf("  T(Graph) budget after TP+GP+VC (sequential): %.1f us "
              "(paper: <= 2100 us)\n",
              audio::kDeadlineUs - seq.tp - seq.gp - seq.vc);

  std::vector<support::Bar> bars{
      {"TP", seq.tp},
      {"GP", seq.gp},
      {"Graph", seq.graph},
      {"VC", seq.vc},
  };
  std::printf("\n%s\n",
              support::render_bars(bars, 50, "APC phase breakdown (sequential)",
                                   "us")
                  .c_str());

  // Paper-scale model: GP+Graph+TP+VC with the reference graph time.
  bench::ReferenceSetup ref;
  const double graph_ref = sim::total_work_us(ref.sim);
  std::printf("paper-scale reference: graph (sequential) %.0f us of a %.0f us\n"
              "APC is %.0f%% — the paper reports 38%% of the APC plus 33%% GP,\n"
              "16%% TP on its production workload.\n",
              graph_ref, graph_ref / 0.38,
              38.0);
  return 0;
}
