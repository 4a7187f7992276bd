#include "djstar/stretch/wsola.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "djstar/support/assert.hpp"

namespace djstar::stretch {
namespace {
/// Candidates scored per pass of best_offset(): four f64x2 of two each.
constexpr std::size_t kSearchBlock = 8;
/// Consumed input kept beyond the search slack before compacting.
constexpr std::size_t kInputSlack = 4096;

/// Two doubles (GCC/Clang vector extension); arithmetic is lane-wise.
using f64x2 = double __attribute__((vector_size(16)));

f64x2 load2(const double* p) noexcept {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
}  // namespace

Wsola::Wsola(const WsolaConfig& cfg) : cfg_(cfg) {
  DJSTAR_ASSERT_MSG(cfg_.overlap < cfg_.frame_size,
                    "overlap must be smaller than the frame");
  window_.resize(cfg_.overlap);
  for (std::size_t i = 0; i < cfg_.overlap; ++i) {
    // Raised-cosine crossfade over the overlap region.
    window_[i] = 0.5f - 0.5f * static_cast<float>(std::cos(
                                   std::numbers::pi * static_cast<double>(i) /
                                   static_cast<double>(cfg_.overlap)));
  }
  // The last search block may run up to kSearchBlock - 1 lanes past the
  // 2 * tolerance + 1 candidates, each lane reading `overlap` samples.
  search_.resize(2 * cfg_.tolerance + kSearchBlock + cfg_.overlap);
  // Streaming capacity (see kStreamBlock). produce_frames() leaves less
  // than the compaction slack plus two (frame + tolerance) spans of input
  // before the next push. The output holds under a frame of read samples,
  // what the caller left (< kStreamBlock), and one push's frames: at most
  // 4 * (kStreamBlock + 1) samples at rate 0.25, plus one frame.
  const std::size_t span = cfg_.frame_size + cfg_.tolerance;
  input_.reserve(2 * span + kInputSlack + kStreamBlock);
  output_.reserve(2 * cfg_.frame_size + 5 * kStreamBlock + 4);
  reset();
}

void Wsola::set_rate(double rate) noexcept {
  rate_ = std::clamp(rate, 0.25, 4.0);
}

void Wsola::reset() noexcept {
  input_.clear();
  output_.clear();
  out_read_ = 0;
  in_pos_ = 0.0;
  prev_tail_.assign(cfg_.overlap, 0.0f);
  primed_ = false;
}

void Wsola::push(std::span<const float> in) {
  input_.insert(input_.end(), in.begin(), in.end());
  produce_frames();
}

std::size_t Wsola::available() const noexcept {
  return output_.size() - out_read_;
}

std::size_t Wsola::pull(std::span<float> out) {
  const std::size_t n = std::min(out.size(), available());
  for (std::size_t i = 0; i < n; ++i) out[i] = output_[out_read_ + i];
  out_read_ += n;
  // Compact once a frame's worth has been read: the FIFO then stays
  // within the capacity reserved at construction.
  if (out_read_ >= cfg_.frame_size) {
    output_.erase(output_.begin(),
                  output_.begin() + static_cast<std::ptrdiff_t>(out_read_));
    out_read_ = 0;
  }
  return n;
}

std::size_t Wsola::best_offset(std::size_t ideal) noexcept {
  // Search [ideal - tol, ideal + tol] for the start that maximizes
  // normalized cross-correlation between the previous tail and the
  // overlap region of the candidate frame. Candidates whose frame would
  // run past the input are skipped.
  const std::size_t overlap = cfg_.overlap;
  const std::size_t lo = ideal > cfg_.tolerance ? ideal - cfg_.tolerance : 0;
  if (lo + cfg_.frame_size > input_.size()) return ideal;
  const std::size_t count =
      std::min(ideal + cfg_.tolerance, input_.size() - cfg_.frame_size) - lo +
      1;
  double* const x = search_.data();
  for (std::size_t j = 0; j + 1 < count + overlap; ++j) x[j] = input_[lo + j];

  // Each lane sums one candidate's corr and energy over i = 0..overlap-1
  // in order, from 0 and 1e-9; a float x float product is exact in
  // double. So every score has the bits of the one-candidate-at-a-time
  // loop, and the first strictly greater score still wins.
  std::size_t best = ideal;
  double best_score = -1e30;
  for (std::size_t c = 0; c < count; c += kSearchBlock) {
    f64x2 corr[kSearchBlock / 2];
    f64x2 energy[kSearchBlock / 2];
    for (std::size_t v = 0; v < kSearchBlock / 2; ++v) {
      corr[v] = f64x2{0.0, 0.0};
      energy[v] = f64x2{1e-9, 1e-9};
    }
    for (std::size_t i = 0; i < overlap; ++i) {
      const double t = prev_tail_[i];
      for (std::size_t v = 0; v < kSearchBlock / 2; ++v) {
        const f64x2 s = load2(x + c + i + 2 * v);
        corr[v] += t * s;
        energy[v] += s * s;
      }
    }
    const std::size_t lanes = std::min(kSearchBlock, count - c);
    for (std::size_t j = 0; j < lanes; ++j) {
      const double score = corr[j / 2][j % 2] / std::sqrt(energy[j / 2][j % 2]);
      if (score > best_score) {
        best_score = score;
        best = lo + c + j;
      }
    }
  }
  return best;
}

void Wsola::produce_frames() {
  const std::size_t frame = cfg_.frame_size;
  const std::size_t overlap = cfg_.overlap;
  const std::size_t synth_hop = frame - overlap;

  for (;;) {
    const auto ideal = static_cast<std::size_t>(in_pos_);
    // Need the candidate window plus search tolerance ahead.
    if (ideal + frame + cfg_.tolerance > input_.size()) break;

    std::size_t start;
    if (!primed_) {
      start = ideal;
      primed_ = true;
      // First frame: emit it whole; its tail becomes the template.
      for (std::size_t i = 0; i < synth_hop; ++i) {
        output_.push_back(input_[start + i]);
      }
    } else {
      start = best_offset(ideal);
      // Crossfade prev_tail_ with the head of the chosen frame.
      for (std::size_t i = 0; i < overlap; ++i) {
        const float w = window_[i];
        output_.push_back((1.0f - w) * prev_tail_[i] +
                          w * input_[start + i]);
      }
      // Then the un-overlapped middle part.
      for (std::size_t i = overlap; i < synth_hop; ++i) {
        output_.push_back(input_[start + i]);
      }
    }
    // Stash the new tail.
    for (std::size_t i = 0; i < overlap; ++i) {
      prev_tail_[i] = input_[start + synth_hop + i];
    }
    in_pos_ += static_cast<double>(synth_hop) * rate_;
  }

  // Compact consumed input, keeping the search slack behind in_pos_.
  const std::size_t keep_behind = cfg_.tolerance + frame;
  const auto ipos = static_cast<std::size_t>(in_pos_);
  if (ipos > keep_behind + kInputSlack) {
    // A hop at rate 4 can carry the analysis position past the buffered
    // input when frame + tolerance is small; drop at most what is there.
    const std::size_t drop = std::min(ipos - keep_behind, input_.size());
    input_.erase(input_.begin(),
                 input_.begin() + static_cast<std::ptrdiff_t>(drop));
    in_pos_ -= static_cast<double>(drop);
  }
}

std::vector<float> Wsola::stretch(std::span<const float> in, double rate,
                                  const WsolaConfig& cfg) {
  Wsola w(cfg);
  w.set_rate(rate);
  w.push(in);
  // Flush: pad with silence so trailing frames are produced.
  std::vector<float> pad(cfg.frame_size + cfg.tolerance + 1, 0.0f);
  w.push(pad);
  std::vector<float> out(w.available());
  w.pull(out);
  return out;
}

int estimate_alignment(std::span<const float> a, std::span<const float> b,
                       int max_lag) noexcept {
  int best_lag = 0;
  double best = -1e30;
  const int n = static_cast<int>(std::min(a.size(), b.size()));
  for (int lag = -max_lag; lag <= max_lag; ++lag) {
    double corr = 0.0;
    for (int i = 0; i < n; ++i) {
      const int j = i - lag;
      if (j < 0 || j >= n) continue;
      corr += static_cast<double>(a[i]) * b[j];
    }
    if (corr > best) {
      best = corr;
      best_lag = lag;
    }
  }
  return best_lag;
}

}  // namespace djstar::stretch
