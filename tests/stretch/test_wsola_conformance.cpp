// Bit-exact conformance of the WSOLA similarity search. The reference
// below is the one-candidate-at-a-time scalar stretcher; the library
// scores a block of candidates per pass, which must choose the same
// offsets and so pull() the same bits for every rate, input and push
// size. Outputs are compared with memcmp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "djstar/stretch/wsola.hpp"
#include "djstar/support/rng.hpp"

namespace dst = djstar::stretch;

namespace {

/// The scalar WSOLA: same frames, crossfade and input compaction as
/// dst::Wsola, with a search that sums one candidate at a time.
class RefWsola {
 public:
  explicit RefWsola(const dst::WsolaConfig& cfg)
      : cfg_(cfg), window_(cfg.overlap), prev_tail_(cfg.overlap, 0.0f) {
    for (std::size_t i = 0; i < cfg_.overlap; ++i) {
      window_[i] = 0.5f - 0.5f * static_cast<float>(std::cos(
                                     std::numbers::pi * static_cast<double>(i) /
                                     static_cast<double>(cfg_.overlap)));
    }
  }

  void set_rate(double rate) { rate_ = std::clamp(rate, 0.25, 4.0); }

  void push(const float* in, std::size_t n) {
    input_.insert(input_.end(), in, in + n);
    produce_frames();
  }

  std::size_t available() const { return output_.size() - out_read_; }

  std::vector<float> pull_all() {
    std::vector<float> out(output_.begin() +
                               static_cast<std::ptrdiff_t>(out_read_),
                           output_.end());
    output_.clear();
    out_read_ = 0;
    return out;
  }

 private:
  std::size_t best_offset(std::size_t ideal) const {
    const std::size_t tol = cfg_.tolerance;
    const std::size_t lo = ideal > tol ? ideal - tol : 0;
    const std::size_t hi = ideal + tol;
    std::size_t best = ideal;
    double best_score = -1e30;
    for (std::size_t cand = lo; cand <= hi; ++cand) {
      if (cand + cfg_.frame_size > input_.size()) break;
      double corr = 0.0, energy = 1e-9;
      for (std::size_t i = 0; i < cfg_.overlap; ++i) {
        const double x = input_[cand + i];
        corr += static_cast<double>(prev_tail_[i]) * x;
        energy += x * x;
      }
      const double score = corr / std::sqrt(energy);
      if (score > best_score) {
        best_score = score;
        best = cand;
      }
    }
    return best;
  }

  void produce_frames() {
    const std::size_t frame = cfg_.frame_size;
    const std::size_t overlap = cfg_.overlap;
    const std::size_t synth_hop = frame - overlap;
    for (;;) {
      const auto ideal = static_cast<std::size_t>(in_pos_);
      if (ideal + frame + cfg_.tolerance > input_.size()) break;
      std::size_t start;
      if (!primed_) {
        start = ideal;
        primed_ = true;
        for (std::size_t i = 0; i < synth_hop; ++i) {
          output_.push_back(input_[start + i]);
        }
      } else {
        start = best_offset(ideal);
        for (std::size_t i = 0; i < overlap; ++i) {
          const float w = window_[i];
          output_.push_back((1.0f - w) * prev_tail_[i] +
                            w * input_[start + i]);
        }
        for (std::size_t i = overlap; i < synth_hop; ++i) {
          output_.push_back(input_[start + i]);
        }
      }
      for (std::size_t i = 0; i < overlap; ++i) {
        prev_tail_[i] = input_[start + synth_hop + i];
      }
      in_pos_ += static_cast<double>(synth_hop) * rate_;
    }
    const std::size_t keep_behind = cfg_.tolerance + frame;
    const auto ipos = static_cast<std::size_t>(in_pos_);
    if (ipos > keep_behind + 4096) {
      // Clamped like the library's: unclamped, the "narrow" config at
      // rate 4 erased past the end of the input.
      const std::size_t drop = std::min(ipos - keep_behind, input_.size());
      input_.erase(input_.begin(),
                   input_.begin() + static_cast<std::ptrdiff_t>(drop));
      in_pos_ -= static_cast<double>(drop);
    }
  }

  dst::WsolaConfig cfg_;
  double rate_ = 1.0;
  std::vector<float> window_;
  std::vector<float> input_, output_;
  std::size_t out_read_ = 0;
  double in_pos_ = 0.0;
  std::vector<float> prev_tail_;
  bool primed_ = false;
};

enum class Input { kSineNoise, kTransient, kSilence };

std::vector<float> make_input(Input kind, std::size_t n) {
  std::vector<float> x(n, 0.0f);
  djstar::support::Xoshiro256 rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 44100.0;
    switch (kind) {
      case Input::kSineNoise:
        x[i] = static_cast<float>(0.6 * std::sin(2.0 * std::numbers::pi *
                                                 (220.0 + 40.0 * t) * t)) +
               0.2f * rng.bipolar();
        break;
      case Input::kTransient:
        x[i] = i % 997 < 3 ? 1.0f - 0.3f * static_cast<float>(i % 997) : 0.0f;
        break;
      case Input::kSilence: break;
    }
  }
  return x;
}

struct Config {
  const char* name;
  dst::WsolaConfig cfg;
};

// The deck's config (289 candidates), the default (321), fewer candidates
// than one search block (7), and a tolerance wider than the frame, which
// clamps the search window at the start of the input for many frames.
const Config kConfigs[] = {
    {"deck", {.frame_size = 512, .overlap = 192, .tolerance = 144}},
    {"default", {}},
    {"narrow", {.frame_size = 128, .overlap = 37, .tolerance = 3}},
    {"clamped", {.frame_size = 256, .overlap = 64, .tolerance = 300}},
};

::testing::AssertionResult bit_equal(const std::vector<float>& got,
                                     const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  if (!got.empty() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    std::size_t i = 0;
    while (std::memcmp(&got[i], &want[i], sizeof(float)) == 0) ++i;
    return ::testing::AssertionFailure() << "first difference at " << i;
  }
  return ::testing::AssertionSuccess();
}

/// Stream `in` through both stretchers in `push`-sized pieces, pulling
/// everything after each push; `rate_at(k)` is the rate before push k.
template <typename RateAt>
::testing::AssertionResult stream_equal(const dst::WsolaConfig& cfg,
                                        const std::vector<float>& in,
                                        std::size_t push, RateAt rate_at) {
  dst::Wsola w(cfg);
  RefWsola ref(cfg);
  std::vector<float> got;
  std::size_t produced = 0;
  for (std::size_t pos = 0, k = 0; pos < in.size(); pos += push, ++k) {
    const std::size_t n = std::min(push, in.size() - pos);
    w.set_rate(rate_at(k));
    ref.set_rate(rate_at(k));
    w.push({in.data() + pos, n});
    ref.push(in.data() + pos, n);
    if (w.available() != ref.available()) {
      return ::testing::AssertionFailure()
             << "available " << w.available() << " != " << ref.available()
             << " after push " << k;
    }
    got.resize(w.available());
    w.pull(got);
    auto r = bit_equal(got, ref.pull_all());
    if (!r) return r << " after push " << k;
    produced += got.size();
  }
  if (produced == 0) return ::testing::AssertionFailure() << "no output";
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(WsolaConformance, PullMatchesScalarSearchBits) {
  for (const Config& c : kConfigs) {
    for (Input kind : {Input::kSineNoise, Input::kTransient, Input::kSilence}) {
      const auto in = make_input(kind, 24000);
      for (double rate : {0.25, 0.5, 0.8, 1.0, 1.37, 2.0, 4.0}) {
        for (std::size_t push : {1u, 128u, 1000u}) {
          EXPECT_TRUE(stream_equal(c.cfg, in, push,
                                   [rate](std::size_t) { return rate; }))
              << c.name << " input " << static_cast<int>(kind) << " rate "
              << rate << " push " << push;
        }
      }
    }
  }
}

TEST(WsolaConformance, PullMatchesScalarSearchBitsWhileRateMoves) {
  // The deck re-sets the rate every packet from the decoded pitch.
  const auto sweep = [](std::size_t k) {
    const double phase = 0.05 * static_cast<double>(k);
    return 0.25 * std::pow(16.0, 0.5 + 0.5 * std::sin(phase));
  };
  const auto in = make_input(Input::kSineNoise, 40000);
  for (const Config& c : kConfigs) {
    EXPECT_TRUE(stream_equal(c.cfg, in, 128, sweep)) << c.name;
  }
}
