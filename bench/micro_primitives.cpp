// bench/micro_primitives.cpp
// google-benchmark micro suite behind the OverheadModel calibration
// (DESIGN.md §5): the per-operation costs that separate the three
// strategies — dependency checks, spin quanta, sleep/wake round trips,
// deque operations and steals — plus the DSP kernels that set the node
// runtimes.
#include <benchmark/benchmark.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "djstar/audio/buffer.hpp"
#include "djstar/core/chase_lev_deque.hpp"
#include "djstar/core/compiled_graph.hpp"
#include "djstar/core/detail/spin.hpp"
#include "djstar/core/factory.hpp"
#include "djstar/core/team.hpp"
#include "djstar/dsp/filters.hpp"
#include "djstar/engine/djstar_graph.hpp"
#include "djstar/fft/fft.hpp"
#include "djstar/timecode/timecode.hpp"

namespace {

using namespace djstar;

// ---- scheduling primitives ----

void BM_AtomicDependencyCheck(benchmark::State& state) {
  std::atomic<std::int32_t> pending{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pending.load(std::memory_order_acquire));
  }
}
BENCHMARK(BM_AtomicDependencyCheck);

void BM_AtomicDependencyResolve(benchmark::State& state) {
  std::atomic<std::int32_t> pending{1 << 30};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pending.fetch_sub(1, std::memory_order_acq_rel));
  }
}
BENCHMARK(BM_AtomicDependencyResolve);

void BM_SpinQuantum(benchmark::State& state) {
  for (auto _ : state) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }
}
BENCHMARK(BM_SpinQuantum);

void BM_DequePushPop(benchmark::State& state) {
  core::ChaseLevDeque d(128);
  for (auto _ : state) {
    d.push(1);
    benchmark::DoNotOptimize(d.pop());
  }
}
BENCHMARK(BM_DequePushPop);

void BM_DequeStealUncontended(benchmark::State& state) {
  core::ChaseLevDeque d(128);
  for (auto _ : state) {
    d.push(1);
    benchmark::DoNotOptimize(d.steal());
  }
}
BENCHMARK(BM_DequeStealUncontended);

void BM_CondvarWakeRoundTrip(benchmark::State& state) {
  // Full sleep/wake round trip: the cost SLEEP pays per dependency stall.
  std::mutex m;
  std::condition_variable cv;
  bool go = false, done = false, stop = false;
  std::thread sleeper([&] {
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv.wait(lk, [&] { return go || stop; });
      if (stop) return;
      go = false;
      done = true;
      cv.notify_all();
    }
  });
  for (auto _ : state) {
    {
      std::unique_lock<std::mutex> lk(m);
      go = true;
      cv.notify_all();
      cv.wait(lk, [&] { return done; });
      done = false;
    }
  }
  {
    const std::lock_guard<std::mutex> lk(m);
    stop = true;
  }
  cv.notify_all();
  sleeper.join();
}
BENCHMARK(BM_CondvarWakeRoundTrip)->UseRealTime();

void BM_ClaimCas(benchmark::State& state) {
  // The claim every node passes in the worker loop: one CAS on the
  // node's own cache line (uncontended in a clean cycle).
  std::atomic<std::uint8_t> claim{0};
  for (auto _ : state) {
    std::uint8_t expected = 0;
    benchmark::DoNotOptimize(
        claim.compare_exchange_strong(expected, 1, std::memory_order_acq_rel));
    claim.store(0, std::memory_order_relaxed);
  }
}
BENCHMARK(BM_ClaimCas);

/// Fixed cost of one cycle that every worker joins: worker 0 holds the
/// cycle open until all `threads` workers have entered it. The helpers
/// are parked when the cycle opens, so this is the dispatch cost every
/// executor pays.
void BM_TeamCycleOverhead_cold(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::atomic<unsigned> entered{0};
  unsigned cycles = 0;
  core::Team team(threads, [&](unsigned w) {
    entered.fetch_add(1, std::memory_order_acq_rel);
    if (w != 0) return;
    const unsigned target = ++cycles * threads;
    while (entered.load(std::memory_order_acquire) < target) {
      core::detail::cpu_pause();
    }
  });
  for (auto _ : state) {
    team.run_cycle();
  }
}
BENCHMARK(BM_TeamCycleOverhead_cold)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_GraphCycle67Nodes(benchmark::State& state) {
  // One full APC graph execution with no-op deck inputs, per strategy.
  engine::DjStarGraph gn;
  core::CompiledGraph cg(gn.graph());
  core::ExecOptions opts;
  opts.threads = static_cast<unsigned>(state.range(1));
  const auto strategy = static_cast<core::Strategy>(state.range(0));
  auto exec = core::make_executor(strategy, cg, opts);
  for (auto _ : state) {
    exec->run_cycle();
  }
}
BENCHMARK(BM_GraphCycle67Nodes)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 4}})
    ->ArgNames({"strategy", "threads"})
    ->UseRealTime();

// ---- DSP kernels (the node-cost side of the calibration) ----

void BM_BiquadBlock128(benchmark::State& state) {
  dsp::Biquad f;
  f.set(dsp::BiquadType::kLowpass, 1000.0, 0.707, 0.0);
  std::vector<float> buf(128, 0.5f);
  for (auto _ : state) {
    f.process(buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_BiquadBlock128);

void BM_Fft256(benchmark::State& state) {
  fft::Fft fft(256);
  std::vector<std::complex<float>> data(256, {0.5f, 0.0f});
  for (auto _ : state) {
    fft.forward(data);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft256);

void BM_TimecodeDecodeBlock(benchmark::State& state) {
  timecode::TimecodeGenerator gen;
  timecode::TimecodeDecoder dec;
  audio::AudioBuffer buf(2, audio::kBlockSize);
  for (auto _ : state) {
    gen.render(buf);
    dec.process(buf);
  }
}
BENCHMARK(BM_TimecodeDecodeBlock);

void BM_EqBlock128(benchmark::State& state) {
  dsp::ThreeBandEq eq;
  audio::AudioBuffer buf(2, 128);
  for (std::size_t i = 0; i < 128; ++i) buf.at(0, i) = 0.3f;
  for (auto _ : state) {
    eq.process(buf);
    benchmark::DoNotOptimize(buf.raw().data());
  }
}
BENCHMARK(BM_EqBlock128);

}  // namespace

BENCHMARK_MAIN();
