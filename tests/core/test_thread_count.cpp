// Unit tests for the hardened DJSTAR_THREADS / thread-count resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "djstar/core/thread_count.hpp"

namespace dc = djstar::core;

using djstar_test::ScopedEnv;

TEST(ParseThreadCount, AcceptsPlainAndPaddedNumbers) {
  EXPECT_EQ(dc::parse_thread_count("4"), 4u);
  EXPECT_EQ(dc::parse_thread_count("1"), 1u);
  EXPECT_EQ(dc::parse_thread_count("  8  "), 8u);
  EXPECT_EQ(dc::parse_thread_count("0"), 0u);  // 0 = auto
}

TEST(ParseThreadCount, ClampsHugeValues) {
  EXPECT_EQ(dc::parse_thread_count("100000"), dc::kMaxThreads);
  EXPECT_EQ(dc::parse_thread_count("18446744073709551616"), dc::kMaxThreads);
}

TEST(ParseThreadCount, RejectsGarbageWithTheOffendingText) {
  EXPECT_THROW(dc::parse_thread_count(""), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("   "), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("-1"), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("-99"), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("four"), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("4threads"), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("3.5"), std::invalid_argument);
  EXPECT_THROW(dc::parse_thread_count("+4"), std::invalid_argument);
  try {
    dc::parse_thread_count("banana");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << "error message should quote the offending value";
  }
}

TEST(ResolveThreadCount, UsesRequestedWhenEnvUnset) {
  ScopedEnv env("DJSTAR_THREADS", nullptr);
  EXPECT_EQ(dc::resolve_thread_count(3), 3u);
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  ScopedEnv env("DJSTAR_THREADS", nullptr);
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned resolved = dc::resolve_thread_count(0);
  EXPECT_GE(resolved, 1u);
  EXPECT_LE(resolved, dc::kMaxThreads);
  if (hw != 0) {
    EXPECT_EQ(resolved, std::min(hw, dc::kMaxThreads));
  }
}

TEST(ResolveThreadCount, EnvOverridesRequested) {
  ScopedEnv env("DJSTAR_THREADS", "5");
  EXPECT_EQ(dc::resolve_thread_count(2), 5u);
}

TEST(ResolveThreadCount, EnvZeroMeansAutoEvenWithRequest) {
  ScopedEnv env("DJSTAR_THREADS", "0");
  EXPECT_GE(dc::resolve_thread_count(7), 1u);
}

TEST(ResolveThreadCount, EnvGarbageThrowsInsteadOfSilentlyDefaulting) {
  ScopedEnv env("DJSTAR_THREADS", "lots");
  EXPECT_THROW(dc::resolve_thread_count(4), std::invalid_argument);
}

TEST(ResolveThreadCount, EnvNegativeThrows) {
  ScopedEnv env("DJSTAR_THREADS", "-2");
  EXPECT_THROW(dc::resolve_thread_count(4), std::invalid_argument);
}

TEST(ResolveThreadCount, HugeValuesClampToMaxThreads) {
  ScopedEnv env("DJSTAR_THREADS", "99999");
  EXPECT_EQ(dc::resolve_thread_count(4), dc::kMaxThreads);
}
