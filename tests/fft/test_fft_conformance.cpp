// Bit-exact conformance of the FFT butterfly. The reference below is the
// radix-2 transform written with std::complex<float> arithmetic; the
// library spells the complex product out in float, which must give the
// same bits for every finite input. Outputs are compared with memcmp, so
// even a flipped zero sign fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <iterator>
#include <numbers>
#include <vector>

#include "djstar/fft/fft.hpp"
#include "djstar/support/rng.hpp"

namespace df = djstar::fft;
using cf = std::complex<float>;

namespace {

/// The std::complex radix-2 decimation-in-time FFT (same twiddles and
/// bit-reversal as df::Fft).
class RefFft {
 public:
  explicit RefFft(std::size_t n) : n_(n), rev_(n), tw_(n / 2), tw_inv_(n / 2) {
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n_) ++bits;
    for (std::size_t i = 0; i < n_; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < bits; ++b) r = (r << 1) | ((i >> b) & 1);
      rev_[i] = r;
    }
    for (std::size_t k = 0; k < n_ / 2; ++k) {
      const double a = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n_);
      tw_[k] = {static_cast<float>(std::cos(a)),
                static_cast<float>(std::sin(a))};
      tw_inv_[k] = std::conj(tw_[k]);
    }
  }

  std::size_t size() const { return n_; }

  void forward(std::vector<cf>& data) const { transform(data, false); }

  void inverse(std::vector<cf>& data) const {
    transform(data, true);
    const float norm = 1.0f / static_cast<float>(n_);
    for (auto& x : data) x *= norm;
  }

 private:
  void transform(std::vector<cf>& data, bool inverse) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t j = rev_[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    const auto& tw = inverse ? tw_inv_ : tw_;
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t step = n_ / len;
      for (std::size_t i = 0; i < n_; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cf w = tw[k * step];
          const cf u = data[i + k];
          const cf v = data[i + k + half] * w;
          data[i + k] = u + v;
          data[i + k + half] = u - v;
        }
      }
    }
  }

  std::size_t n_;
  std::vector<std::size_t> rev_;
  std::vector<cf> tw_, tw_inv_;
};

/// df::RealFft over the reference transform.
class RefRealFft {
 public:
  explicit RefRealFft(std::size_t n) : fft_(n), work_(n) {}
  std::size_t size() const { return fft_.size(); }
  std::size_t bins() const { return size() / 2 + 1; }

  void forward(const std::vector<float>& in, std::vector<cf>& spectrum) {
    for (std::size_t i = 0; i < size(); ++i) work_[i] = {in[i], 0.0f};
    fft_.forward(work_);
    for (std::size_t k = 0; k < bins(); ++k) spectrum[k] = work_[k];
  }

  void inverse(const std::vector<cf>& spectrum, std::vector<float>& out) {
    const std::size_t n = size();
    work_[0] = spectrum[0];
    for (std::size_t k = 1; k < bins(); ++k) {
      work_[k] = spectrum[k];
      if (k != n - k) work_[n - k] = std::conj(spectrum[k]);
    }
    fft_.inverse(work_);
    for (std::size_t i = 0; i < n; ++i) out[i] = work_[i].real();
  }

 private:
  RefFft fft_;
  std::vector<cf> work_;
};

/// df::SpectralFilter over the reference transform.
class RefSpectralFilter {
 public:
  RefSpectralFilter(std::size_t n, double lo_hz, double hi_hz, double sr)
      : fft_(n), hop_(n / 2), window_(n), in_fifo_(n, 0.0f),
        out_fifo_(2 * n, 0.0f), spectrum_(n / 2 + 1), frame_(n) {
    df::make_window(df::WindowType::kHann, window_);
    const double bin_hz = sr / static_cast<double>(n);
    lo_bin_ = static_cast<std::size_t>(std::max(0.0, lo_hz / bin_hz));
    hi_bin_ = static_cast<std::size_t>(
        std::min(static_cast<double>(fft_.bins() - 1), hi_hz / bin_hz));
  }

  void process(std::vector<float>& io) {
    const std::size_t n = fft_.size();
    for (auto& s : io) {
      in_fifo_[n - hop_ + fill_] = s;
      s = out_fifo_[fill_];
      if (++fill_ < hop_) continue;
      fill_ = 0;
      for (std::size_t i = 0; i < n; ++i) frame_[i] = in_fifo_[i] * window_[i];
      fft_.forward(frame_, spectrum_);
      for (std::size_t k = 0; k < fft_.bins(); ++k) {
        if (k < lo_bin_ || k > hi_bin_) spectrum_[k] = {0.0f, 0.0f};
      }
      fft_.inverse(spectrum_, frame_);
      for (std::size_t i = 0; i < n; ++i) out_fifo_[i] += frame_[i];
      for (std::size_t i = 0; i < n - hop_; ++i) {
        in_fifo_[i] = in_fifo_[i + hop_];
      }
      for (std::size_t i = 0; i + hop_ < out_fifo_.size(); ++i) {
        out_fifo_[i] = out_fifo_[i + hop_];
      }
      std::fill(out_fifo_.end() - static_cast<std::ptrdiff_t>(hop_),
                out_fifo_.end(), 0.0f);
    }
  }

 private:
  RefRealFft fft_;
  std::size_t hop_;
  std::vector<float> window_, in_fifo_, out_fifo_;
  std::vector<cf> spectrum_;
  std::vector<float> frame_;
  std::size_t fill_ = 0, lo_bin_ = 0, hi_bin_ = 0;
};

/// Finite values spanning the float range: unit-scale, large (sums of up
/// to 8192 stay far below FLT_MAX), tiny, subnormal, and signed zeros.
float finite_sample(djstar::support::Xoshiro256& rng) {
  static constexpr float kScales[] = {1.0f, 1e30f, 1e-30f, 1e-40f, 0.0f};
  const float scale = kScales[rng.below(std::size(kScales))];
  const float v = rng.bipolar() * scale;
  return rng.below(16) == 0 ? -0.0f * v : v;
}

template <typename T>
::testing::AssertionResult bit_equal(const std::vector<T>& got,
                                     const std::vector<T>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure() << "first difference at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST(FftConformance, ComplexTransformsMatchReferenceBits) {
  djstar::support::Xoshiro256 rng(42);
  for (std::size_t n = 2; n <= 8192; n <<= 1) {
    const df::Fft fft(n);
    const RefFft ref(n);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<cf> x(n);
      for (auto& v : x) v = {finite_sample(rng), finite_sample(rng)};
      auto got = x, want = x;
      fft.forward(got);
      ref.forward(want);
      ASSERT_TRUE(bit_equal(got, want)) << "forward n=" << n;
      fft.inverse(got);
      ref.inverse(want);
      ASSERT_TRUE(bit_equal(got, want)) << "round trip n=" << n;
      got = x;
      want = x;
      fft.inverse(got);
      ref.inverse(want);
      ASSERT_TRUE(bit_equal(got, want)) << "inverse n=" << n;
    }
  }
}

TEST(FftConformance, RealTransformsMatchReferenceBits) {
  djstar::support::Xoshiro256 rng(7);
  for (std::size_t n : {2u, 16u, 256u, 1024u, 4096u}) {
    df::RealFft fft(n);
    RefRealFft ref(n);
    std::vector<float> x(n);
    for (auto& v : x) v = finite_sample(rng);
    std::vector<cf> got_spec(fft.bins()), want_spec(fft.bins());
    fft.forward(x, got_spec);
    ref.forward(x, want_spec);
    ASSERT_TRUE(bit_equal(got_spec, want_spec)) << "forward n=" << n;
    std::vector<float> got(n), want(n);
    fft.inverse(got_spec, got);
    ref.inverse(want_spec, want);
    ASSERT_TRUE(bit_equal(got, want)) << "inverse n=" << n;
  }
}

TEST(FftConformance, StreamedSpectralFilterMatchesReferenceBits) {
  constexpr double kSr = 44100.0;
  struct Case {
    std::size_t fft_size;
    double lo_hz, hi_hz;
    std::size_t block;
  };
  for (const Case c :
       {Case{256, 200.0, 4000.0, 128}, Case{256, 0.0, 1e5, 100},
        Case{512, 1000.0, 1200.0, 1}, Case{64, 50.0, 9000.0, 333}}) {
    df::SpectralFilter filter(c.fft_size);
    filter.set_band(c.lo_hz, c.hi_hz, kSr);
    RefSpectralFilter ref(c.fft_size, c.lo_hz, c.hi_hz, kSr);
    djstar::support::Xoshiro256 rng(c.fft_size + c.block);
    for (std::size_t pos = 0; pos < 20000; pos += c.block) {
      std::vector<float> block(c.block);
      for (std::size_t i = 0; i < c.block; ++i) {
        block[i] = static_cast<float>(
                       0.5 * std::sin(2.0 * std::numbers::pi * 440.0 *
                                      static_cast<double>(pos + i) / kSr)) +
                   0.1f * rng.bipolar();
      }
      std::vector<float> want = block;
      filter.process(block);
      ref.process(want);
      ASSERT_TRUE(bit_equal(block, want))
          << "fft " << c.fft_size << " block " << c.block << " at " << pos;
    }
  }
}
