#include "djstar/fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "djstar/support/assert.hpp"

namespace djstar::fft {
namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

bool is_pow2(std::size_t n) { return n >= 2 && (n & (n - 1)) == 0; }
}  // namespace

Fft::Fft(std::size_t size) : n_(size) {
  DJSTAR_ASSERT_MSG(is_pow2(size), "FFT size must be a power of two >= 2");
  rev_.resize(n_);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n_) ++bits;
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      r = (r << 1) | ((i >> b) & 1);
    }
    rev_[i] = r;
  }
  twiddle_.resize(n_ / 2);
  twiddle_inv_.resize(n_ / 2);
  for (std::size_t k = 0; k < n_ / 2; ++k) {
    const double a = -kTwoPi * static_cast<double>(k) / static_cast<double>(n_);
    twiddle_[k] = {static_cast<float>(std::cos(a)),
                   static_cast<float>(std::sin(a))};
    twiddle_inv_[k] = std::conj(twiddle_[k]);
  }
}

void Fft::transform(std::span<std::complex<float>> data,
                    bool inverse) const noexcept {
  DJSTAR_ASSERT(data.size() == n_);
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = rev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Butterflies on the (re, im) float pairs std::complex<float> is laid
  // out as. The product b*w is spelled out in the operation order of the
  // std::complex multiply (re = br*wr - bi*wi, im = br*wi + bi*wr), so
  // finite inputs give the same bits, without its NaN-recovery branch and
  // the store/reload of the product that stall the loop. Audio reaching
  // the FFT is always finite.
  float* const d = reinterpret_cast<float*>(data.data());
  const float* const tw = reinterpret_cast<const float*>(
      (inverse ? twiddle_inv_ : twiddle_).data());
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n_ / len;
    for (std::size_t i = 0; i < n_; i += len) {
      float* const a = d + 2 * i;
      float* const b = a + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const float wr = tw[2 * k * step];
        const float wi = tw[2 * k * step + 1];
        const float br = b[2 * k];
        const float bi = b[2 * k + 1];
        const float vr = br * wr - bi * wi;
        const float vi = br * wi + bi * wr;
        const float ur = a[2 * k];
        const float ui = a[2 * k + 1];
        a[2 * k] = ur + vr;
        a[2 * k + 1] = ui + vi;
        b[2 * k] = ur - vr;
        b[2 * k + 1] = ui - vi;
      }
    }
  }
}

void Fft::forward(std::span<std::complex<float>> data) const noexcept {
  transform(data, false);
}

void Fft::inverse(std::span<std::complex<float>> data) const noexcept {
  transform(data, true);
  const float norm = 1.0f / static_cast<float>(n_);
  for (auto& x : data) x *= norm;
}

RealFft::RealFft(std::size_t size) : fft_(size), work_(size) {}

void RealFft::forward(std::span<const float> input,
                      std::span<std::complex<float>> spectrum) noexcept {
  DJSTAR_ASSERT(input.size() == size() && spectrum.size() >= bins());
  for (std::size_t i = 0; i < size(); ++i) work_[i] = {input[i], 0.0f};
  fft_.forward(work_);
  for (std::size_t k = 0; k < bins(); ++k) spectrum[k] = work_[k];
}

void RealFft::inverse(std::span<const std::complex<float>> spectrum,
                      std::span<float> output) noexcept {
  DJSTAR_ASSERT(spectrum.size() >= bins() && output.size() == size());
  const std::size_t n = size();
  work_[0] = spectrum[0];
  for (std::size_t k = 1; k < bins(); ++k) {
    work_[k] = spectrum[k];
    if (k != n - k) work_[n - k] = std::conj(spectrum[k]);
  }
  fft_.inverse(work_);
  for (std::size_t i = 0; i < n; ++i) output[i] = work_[i].real();
}

void make_window(WindowType type, std::span<float> out) noexcept {
  const auto n = static_cast<double>(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double x = static_cast<double>(i) / n;  // periodic window
    double w = 1.0;
    switch (type) {
      case WindowType::kRect: w = 1.0; break;
      case WindowType::kHann: w = 0.5 - 0.5 * std::cos(kTwoPi * x); break;
      case WindowType::kHamming:
        w = 0.54 - 0.46 * std::cos(kTwoPi * x);
        break;
      case WindowType::kBlackman:
        w = 0.42 - 0.5 * std::cos(kTwoPi * x) + 0.08 * std::cos(2 * kTwoPi * x);
        break;
    }
    out[i] = static_cast<float>(w);
  }
}

SpectralFilter::SpectralFilter(std::size_t fft_size)
    : fft_(fft_size), hop_(fft_size / 2), window_(fft_size),
      in_fifo_(fft_size, 0.0f), out_fifo_(fft_size + fft_size, 0.0f),
      spectrum_(fft_size / 2 + 1), frame_(fft_size) {
  make_window(WindowType::kHann, window_);
  hi_bin_ = fft_.bins() - 1;
}

void SpectralFilter::set_band(double lo_hz, double hi_hz,
                              double sample_rate) noexcept {
  const double bin_hz = sample_rate / static_cast<double>(fft_.size());
  lo_bin_ = static_cast<std::size_t>(std::max(0.0, lo_hz / bin_hz));
  hi_bin_ = static_cast<std::size_t>(
      std::min(static_cast<double>(fft_.bins() - 1), hi_hz / bin_hz));
}

void SpectralFilter::reset() noexcept {
  std::fill(in_fifo_.begin(), in_fifo_.end(), 0.0f);
  std::fill(out_fifo_.begin(), out_fifo_.end(), 0.0f);
  fifo_fill_ = 0;
}

void SpectralFilter::process_frame() noexcept {
  const std::size_t n = fft_.size();
  // Analysis: window the last `n` input samples.
  for (std::size_t i = 0; i < n; ++i) frame_[i] = in_fifo_[i] * window_[i];
  fft_.forward(frame_, spectrum_);
  for (std::size_t k = 0; k < fft_.bins(); ++k) {
    if (k < lo_bin_ || k > hi_bin_) spectrum_[k] = {0.0f, 0.0f};
  }
  fft_.inverse(spectrum_, frame_);
  // Overlap-add into the output FIFO (second window for COLA smoothness
  // is skipped: 50% Hann alone satisfies COLA).
  for (std::size_t i = 0; i < n; ++i) out_fifo_[i] += frame_[i];
}

void SpectralFilter::process(std::span<float> io) noexcept {
  const std::size_t n = fft_.size();
  for (auto& s : io) {
    in_fifo_[n - hop_ + fifo_fill_] = s;
    s = out_fifo_[fifo_fill_];
    ++fifo_fill_;
    if (fifo_fill_ == hop_) {
      fifo_fill_ = 0;
      process_frame();
      // Slide FIFOs by one hop.
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
}

}  // namespace djstar::fft
