// djstar/stretch/wsola.hpp
// WSOLA time-stretching (Waveform Similarity Overlap-Add).
//
// DJ Star's "Time Stretching" preprocessing (paper Fig. 2) changes tempo
// without changing pitch so tracks can be beat-matched. WSOLA slides
// analysis frames at the stretch rate and searches a small tolerance
// window for the best cross-correlation before overlap-adding — this is
// the dominant cost of the GP phase (33 % of APC runtime in §III-B).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "djstar/audio/buffer.hpp"

namespace djstar::stretch {

/// WSOLA parameters.
struct WsolaConfig {
  std::size_t frame_size = 512;   ///< overlap-add frame
  std::size_t overlap = 256;      ///< overlap region (= hop at rate 1)
  std::size_t tolerance = 160;    ///< +/- search range for best match
};

/// Streaming mono WSOLA stretcher. push() input, pull() stretched output.
/// rate > 1 plays faster (shorter output), rate < 1 slower.
class Wsola {
 public:
  /// push() and pull() allocate nothing after construction while each
  /// push() carries at most this many samples and the caller pulls until
  /// fewer than this many are available before pushing again.
  static constexpr std::size_t kStreamBlock = 1024;

  explicit Wsola(const WsolaConfig& cfg = {});

  void set_rate(double rate) noexcept;
  double rate() const noexcept { return rate_; }

  void reset() noexcept;

  /// Append raw input samples.
  void push(std::span<const float> in);

  /// Pull up to out.size() stretched samples; returns the count produced.
  std::size_t pull(std::span<float> out);

  /// Number of stretched samples currently available.
  std::size_t available() const noexcept;

  /// One-shot helper: stretch a whole signal by `rate`.
  static std::vector<float> stretch(std::span<const float> in, double rate,
                                    const WsolaConfig& cfg = {});

 private:
  void produce_frames();
  std::size_t best_offset(std::size_t ideal) noexcept;

  WsolaConfig cfg_;
  double rate_ = 1.0;
  std::vector<float> window_;
  std::vector<float> input_;        // accumulated input
  std::vector<float> output_;       // produced output FIFO
  std::size_t out_read_ = 0;
  double in_pos_ = 0.0;             // analysis position in input_
  std::vector<float> prev_tail_;    // previous frame's overlap region
  std::vector<double> search_;      // best_offset()'s window, as doubles
  bool primed_ = false;
};

/// Phase alignment helper: estimate the lag (in samples, within
/// +/- max_lag) that best aligns `b` to `a` by cross-correlation.
/// Positive result means b should be delayed by that many samples.
int estimate_alignment(std::span<const float> a, std::span<const float> b,
                       int max_lag) noexcept;

}  // namespace djstar::stretch
