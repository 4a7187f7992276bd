// Unit tests for djstar/dsp/basics.hpp.
#include <gtest/gtest.h>

#include <cmath>

#include "djstar/dsp/basics.hpp"

namespace dd = djstar::dsp;
namespace da = djstar::audio;

TEST(SmoothedValue, ConvergesToTarget) {
  dd::SmoothedValue v(0.0f, 5.0f);
  v.set_target(1.0f);
  float last = 0;
  for (int i = 0; i < 44100; ++i) last = v.next();
  EXPECT_NEAR(last, 1.0f, 1e-3f);
}

TEST(SmoothedValue, MovesMonotonically) {
  dd::SmoothedValue v(0.0f, 20.0f);
  v.set_target(1.0f);
  float prev = 0;
  for (int i = 0; i < 2000; ++i) {
    const float x = v.next();
    ASSERT_GE(x, prev);
    prev = x;
  }
}

TEST(SmoothedValue, SnapJumpsImmediately) {
  dd::SmoothedValue v(0.0f);
  v.snap(0.7f);
  EXPECT_EQ(v.current(), 0.7f);
  EXPECT_EQ(v.next(), 0.7f);
}

TEST(Gain, AppliesLinearGain) {
  dd::Gain g(2.0f);
  da::AudioBuffer b(2, 64);
  for (std::size_t i = 0; i < 64; ++i) b.at(0, i) = 0.25f;
  g.process(b);
  EXPECT_NEAR(b.at(0, 63), 0.5f, 1e-5f);
}

TEST(Gain, DbSetterMatchesLinear) {
  dd::Gain g(1.0f);
  g.set_gain_db(-6.0f);
  da::AudioBuffer b(1, 44100);
  for (std::size_t i = 0; i < b.frames(); ++i) b.at(0, i) = 1.0f;
  g.process(b);
  EXPECT_NEAR(b.at(0, b.frames() - 1), 0.5012f, 0.01f);
}

TEST(CrossfaderLaw, EndpointsAndCenter) {
  const auto a = dd::crossfader_law(0.0f);
  EXPECT_NEAR(a.a, 1.0f, 1e-6f);
  EXPECT_NEAR(a.b, 0.0f, 1e-6f);
  const auto b = dd::crossfader_law(1.0f);
  EXPECT_NEAR(b.a, 0.0f, 1e-6f);
  EXPECT_NEAR(b.b, 1.0f, 1e-6f);
  const auto c = dd::crossfader_law(0.5f);
  // Constant power: a^2 + b^2 == 1 everywhere.
  EXPECT_NEAR(c.a * c.a + c.b * c.b, 1.0f, 1e-5f);
}

TEST(CrossfaderLaw, ConstantPowerEverywhere) {
  for (float x = 0.0f; x <= 1.0f; x += 0.05f) {
    const auto g = dd::crossfader_law(x);
    ASSERT_NEAR(g.a * g.a + g.b * g.b, 1.0f, 1e-5f) << "at " << x;
  }
}

TEST(LevelMeter, TracksPeakAndRms) {
  dd::LevelMeter m;
  da::AudioBuffer b(1, 100);
  for (std::size_t i = 0; i < 100; ++i) b.at(0, i) = 0.5f;
  b.at(0, 50) = -0.9f;
  m.process(b);
  EXPECT_FLOAT_EQ(m.peak(), 0.9f);
  EXPECT_NEAR(m.rms(), 0.5f, 0.05f);
}

TEST(Bitcrusher, QuantizesToSteps) {
  dd::Bitcrusher c;
  c.set(2, 1);  // 2 bits: steps of 0.5
  da::AudioBuffer b(1, 4);
  b.at(0, 0) = 0.3f;
  b.at(0, 1) = 0.6f;
  b.at(0, 2) = -0.3f;
  b.at(0, 3) = 0.9f;
  c.process(b);
  for (std::size_t i = 0; i < 4; ++i) {
    const float r = b.at(0, i) / 0.5f;
    ASSERT_NEAR(r, std::round(r), 1e-5f);
  }
}

TEST(Bitcrusher, DownsampleHoldsValues) {
  dd::Bitcrusher c;
  c.set(16, 4);
  da::AudioBuffer b(1, 16);
  for (std::size_t i = 0; i < 16; ++i) b.at(0, i) = static_cast<float>(i);
  c.process(b);
  for (std::size_t i = 0; i < 16; i += 4) {
    for (std::size_t k = 1; k < 4; ++k) {
      ASSERT_EQ(b.at(0, i + k), b.at(0, i));
    }
  }
}

TEST(Waveshaper, IdentityWhenLinear) {
  dd::Waveshaper w;
  w.set(1.0f, 0.0f, 0.0f, 1.0f);
  da::AudioBuffer b(1, 8);
  for (std::size_t i = 0; i < 8; ++i) b.at(0, i) = 0.1f * i;
  da::AudioBuffer orig(1, 8);
  orig.copy_from(b);
  w.process(b);
  for (std::size_t i = 0; i < 8; ++i) ASSERT_FLOAT_EQ(b.at(0, i), orig.at(0, i));
}

TEST(Waveshaper, CubicTermDistorts) {
  dd::Waveshaper w;
  w.set(1.0f, 0.0f, -0.3f, 1.0f);
  da::AudioBuffer b(1, 1);
  b.at(0, 0) = 0.5f;
  w.process(b);
  EXPECT_NEAR(b.at(0, 0), 0.5f - 0.3f * 0.125f, 1e-5f);
}
