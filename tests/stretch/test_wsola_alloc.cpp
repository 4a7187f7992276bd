// Real-time rule for the keylock stretcher: once constructed, streaming
// push()/pull() in the deck's pattern never touches the heap. Counted by
// replacing the global operator new for this test binary; the counter is
// armed only around the streaming loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numbers>
#include <vector>

#include "djstar/audio/buffer.hpp"
#include "djstar/stretch/wsola.hpp"

namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dst = djstar::stretch;
using djstar::audio::kBlockSize;

TEST(WsolaRealtime, StreamingAllocatesNothingAfterConstruction) {
  constexpr std::size_t kBlocks = 12000;
  std::vector<float> track(1 << 16);
  for (std::size_t i = 0; i < track.size(); ++i) {
    track[i] = static_cast<float>(
        0.7 * std::sin(2.0 * std::numbers::pi * 330.0 *
                       static_cast<double>(i) / 44100.0));
  }
  for (const dst::WsolaConfig cfg :
       {dst::WsolaConfig{.frame_size = 512, .overlap = 192, .tolerance = 144},
        dst::WsolaConfig{}}) {
    dst::Wsola w(cfg);
    std::vector<float> out(kBlockSize);
    std::size_t read = 0, pulled = 0;
    g_allocations = 0;
    g_armed = true;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      // Sweep the full rate range, 0.25 .. 4.0, like a moving platter.
      w.set_rate(0.25 * std::pow(16.0, 0.5 + 0.5 * std::sin(
                                           0.003 * static_cast<double>(b))));
      while (w.available() < kBlockSize) {
        if (read + kBlockSize > track.size()) read = 0;
        w.push({track.data() + read, kBlockSize});
        read += kBlockSize;
      }
      pulled += w.pull(out);
    }
    g_armed = false;
    EXPECT_EQ(g_allocations.load(), 0u)
        << "frame " << cfg.frame_size << " tolerance " << cfg.tolerance;
    EXPECT_EQ(pulled, kBlocks * kBlockSize);
  }
}
