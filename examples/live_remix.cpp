// examples/live_remix.cpp
// Stress the real-time property the paper cares about: a DJ hammering
// controls mid-stream (worst case for dependency stalls) while the
// engine races the 2.9 ms deadline. Runs the same scripted chaos under
// all three parallel strategies and prints a deadline scorecard.
//
// Usage: live_remix [cycles_per_strategy]
#include <cstdio>
#include <cstdlib>

#include "djstar/engine/engine.hpp"
#include "djstar/support/rng.hpp"

namespace {

/// One knob-twiddling step: every parameter a DJ can reach, randomized.
void twiddle(djstar::engine::AudioEngine& e,
             djstar::support::Xoshiro256& rng) {
  auto& gn = e.graph_nodes();
  switch (rng.below(8)) {
    case 0:
      gn.mixer().set_crossfader(static_cast<float>(rng.uniform()));
      break;
    case 1:
      gn.channel(rng.below(4)).set_filter_morph(rng.bipolar());
      break;
    case 2:
      gn.channel(rng.below(4))
          .set_eq(rng.uniform() < 0.3 ? -90.0f : static_cast<float>(rng.uniform(-12, 6)),
                  static_cast<float>(rng.uniform(-12, 6)),
                  static_cast<float>(rng.uniform(-12, 6)));
      break;
    case 3: {
      auto& fx = gn.effect(rng.below(4), rng.below(4));
      fx.set_enabled(rng.uniform() < 0.7);
      break;
    }
    case 4:
      gn.effect(rng.below(4), rng.below(4))
          .set_amount(static_cast<float>(rng.uniform()));
      break;
    case 5:
      e.deck(rng.below(4)).set_pitch(rng.uniform(0.85, 1.15));
      break;
    case 6:
      gn.channel(rng.below(4)).set_fader(static_cast<float>(rng.uniform()));
      break;
    case 7:
      gn.sampler().trigger();
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace djstar;
  const std::size_t cycles =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 2000;

  std::printf("live_remix: %zu cycles per strategy, 4 threads, random\n"
              "parameter changes every cycle (worst-case latency demand)\n\n",
              cycles);
  std::printf("  %-6s %12s %12s %12s %10s\n", "", "mean (us)", "p99-ish (us)",
              "worst (us)", "misses");

  for (core::Strategy s : core::kParallelStrategies) {
    engine::EngineConfig cfg;
    cfg.strategy = s;
    cfg.threads = 4;
    engine::AudioEngine e(cfg);
    support::Xoshiro256 rng(99);
    e.run_cycles(50);
    e.monitor().reset();
    for (std::size_t c = 0; c < cycles; ++c) {
      twiddle(e, rng);
      e.run_cycle();
    }
    const auto& m = e.monitor();
    std::printf("  %-6s %12.1f %12.1f %12.1f %7zu/%zu\n",
                std::string(core::to_string(s)).c_str(), m.total().mean(),
                m.p99(), m.total().max(), m.misses(), m.cycles());
  }

  std::printf("\n(the paper's conclusion: busy-waiting gives the most early\n"
              "finishes and the fewest deadline misses; see bench/ for the\n"
              "full Table I / Fig. 9-10 reproductions)\n");
  return 0;
}
