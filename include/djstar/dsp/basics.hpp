// djstar/dsp/basics.hpp
// Small building blocks: gain, crossfader law, parameter smoothing, level
// meter, bitcrusher, waveshaper.
#pragma once

#include <cstddef>

#include "djstar/audio/buffer.hpp"

namespace djstar::dsp {

/// One-pole parameter smoother to avoid zipper noise when the DJ turns a
/// knob mid-buffer. next() is allocation-free.
class SmoothedValue {
 public:
  explicit SmoothedValue(float initial = 0.0f, float time_ms = 20.0f,
                         double sample_rate = audio::kSampleRate) noexcept;
  void set_target(float v) noexcept { target_ = v; }
  void snap(float v) noexcept { target_ = current_ = v; }
  float next() noexcept {
    current_ += coef_ * (target_ - current_);
    return current_;
  }
  float current() const noexcept { return current_; }
  float target() const noexcept { return target_; }

 private:
  float current_, target_, coef_;
};

/// Stereo gain with smoothing.
class Gain {
 public:
  explicit Gain(float gain = 1.0f) noexcept : g_(gain) {}
  void set_gain(float g) noexcept { g_.set_target(g); }
  void set_gain_db(float db) noexcept;
  void process(audio::AudioBuffer& buf) noexcept;

 private:
  SmoothedValue g_;
};

/// DJ crossfader gain law. `position` in [0,1]: 0 = full A, 1 = full B.
/// Returns the pair of channel gains using a constant-power curve.
struct CrossfadeGains {
  float a, b;
};
CrossfadeGains crossfader_law(float position) noexcept;

/// Peak + RMS follower for metering; also used as a graph utility node.
class LevelMeter {
 public:
  void process(const audio::AudioBuffer& buf) noexcept;
  void reset() noexcept { peak_ = rms_ = 0.0f; }
  float peak() const noexcept { return peak_; }
  float rms() const noexcept { return rms_; }

 private:
  float peak_ = 0.0f, rms_ = 0.0f;
};

/// Sample-rate / bit-depth reducer (lo-fi effect).
class Bitcrusher {
 public:
  /// `bits` in [1, 16]; `downsample` >= 1 holds each output value that
  /// many input samples.
  void set(int bits, int downsample) noexcept;
  void reset() noexcept {
    held_[0] = held_[1] = 0.0f;
    count_ = 0;
  }
  void process(audio::AudioBuffer& buf) noexcept;

 private:
  float step_ = 1.0f / 4096.0f;
  int downsample_ = 1;
  int count_ = 0;
  float held_[2] = {};
};

/// Polynomial waveshaper: x -> a1*x + a2*x^2 + a3*x^3 with dry/wet mix.
class Waveshaper {
 public:
  void set(float a1, float a2, float a3, float mix) noexcept;
  void process(audio::AudioBuffer& buf) noexcept;

 private:
  float a1_ = 1.0f, a2_ = 0.0f, a3_ = 0.0f, mix_ = 1.0f;
};

}  // namespace djstar::dsp
