#include "djstar/dsp/basics.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace djstar::dsp {

SmoothedValue::SmoothedValue(float initial, float time_ms,
                             double sample_rate) noexcept
    : current_(initial), target_(initial) {
  const float samples =
      std::max(1.0f, time_ms * 0.001f * static_cast<float>(sample_rate));
  coef_ = 1.0f - std::exp(-1.0f / samples);
}

void Gain::set_gain_db(float db) noexcept {
  g_.set_target(std::pow(10.0f, db / 20.0f));
}

void Gain::process(audio::AudioBuffer& buf) noexcept {
  const std::size_t n = buf.frames();
  const std::size_t nch = buf.channels();
  for (std::size_t i = 0; i < n; ++i) {
    const float g = g_.next();
    for (std::size_t c = 0; c < nch; ++c) buf.at(c, i) *= g;
  }
}

CrossfadeGains crossfader_law(float position) noexcept {
  const float p = std::clamp(position, 0.0f, 1.0f);
  constexpr float kHalfPi = static_cast<float>(std::numbers::pi / 2.0);
  return {std::cos(p * kHalfPi), std::sin(p * kHalfPi)};
}

void LevelMeter::process(const audio::AudioBuffer& buf) noexcept {
  peak_ = buf.peak();
  rms_ = buf.rms();
}

void Bitcrusher::set(int bits, int downsample) noexcept {
  bits = std::clamp(bits, 1, 16);
  step_ = 1.0f / static_cast<float>(1 << (bits - 1));
  downsample_ = std::max(downsample, 1);
}

void Bitcrusher::process(audio::AudioBuffer& buf) noexcept {
  const std::size_t nch = std::min<std::size_t>(buf.channels(), 2);
  for (std::size_t i = 0; i < buf.frames(); ++i) {
    if (count_ == 0) {
      for (std::size_t c = 0; c < nch; ++c) {
        const float q = std::round(buf.at(c, i) / step_) * step_;
        held_[c] = q;
      }
    }
    count_ = (count_ + 1) % downsample_;
    for (std::size_t c = 0; c < nch; ++c) buf.at(c, i) = held_[c];
  }
}

void Waveshaper::set(float a1, float a2, float a3, float mix) noexcept {
  a1_ = a1;
  a2_ = a2;
  a3_ = a3;
  mix_ = std::clamp(mix, 0.0f, 1.0f);
}

void Waveshaper::process(audio::AudioBuffer& buf) noexcept {
  for (auto& s : buf.raw()) {
    const float shaped = a1_ * s + a2_ * s * s + a3_ * s * s * s;
    s = (1.0f - mix_) * s + mix_ * shaped;
  }
}

}  // namespace djstar::dsp
