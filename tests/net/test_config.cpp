// Hardened DJSTAR_NET parsing (DESIGN.md §13): unset means default,
// but a set-and-malformed value throws std::invalid_argument naming the
// offending text — the DJSTAR_THREADS/DJSTAR_HEAL/DJSTAR_BREAKER
// doctrine. Empty strings, garbage, signs, trailing text, and
// out-of-range fields are all rejection cases, never silent fallbacks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/env.hpp"
#include "djstar/net/config.hpp"
#include "djstar/net/server.hpp"

namespace dn = djstar::net;

using djstar_test::ScopedEnv;

TEST(NetConfig, DefaultsAreSane) {
  const dn::NetConfig c{};
  EXPECT_EQ(c.port, 0);  // ephemeral
  EXPECT_GE(c.max_conns, 1u);
  EXPECT_LE(c.max_conns, dn::kMaxConns);
  EXPECT_GE(c.send_ring_kb, dn::kMinSendRingKb);
  EXPECT_LE(c.send_ring_kb, dn::kMaxSendRingKb);
}

TEST(NetConfig, ParsesPortOnly) {
  const dn::NetConfig c = dn::NetConfig::parse("9090");
  EXPECT_EQ(c.port, 9090);
  EXPECT_EQ(c.max_conns, dn::NetConfig{}.max_conns);
  EXPECT_EQ(c.send_ring_kb, dn::NetConfig{}.send_ring_kb);
}

TEST(NetConfig, ParsesAllThreeFields) {
  const dn::NetConfig c = dn::NetConfig::parse("7000,128,64");
  EXPECT_EQ(c.port, 7000);
  EXPECT_EQ(c.max_conns, 128u);
  EXPECT_EQ(c.send_ring_kb, 64u);
}

TEST(NetConfig, ParsesTwoFieldsAndTrimsSpaces) {
  const dn::NetConfig c = dn::NetConfig::parse(" 8080 , 32 ");
  EXPECT_EQ(c.port, 8080);
  EXPECT_EQ(c.max_conns, 32u);
}

TEST(NetConfig, PortZeroMeansEphemeral) {
  EXPECT_EQ(dn::NetConfig::parse("0").port, 0);
}

TEST(NetConfig, BoundaryValuesAreAccepted) {
  const dn::NetConfig c = dn::NetConfig::parse(
      "65535," + std::to_string(dn::kMaxConns) + "," +
      std::to_string(dn::kMinSendRingKb));
  EXPECT_EQ(c.port, 65535);
  EXPECT_EQ(c.max_conns, dn::kMaxConns);
  EXPECT_EQ(c.send_ring_kb, dn::kMinSendRingKb);
}

TEST(NetConfig, MalformedInputsThrow) {
  const char* bad[] = {
      "",          // empty is an explicit misconfiguration, not a default
      " ",         //
      "abc",       // garbage
      "80x",       // trailing text
      "-1",        // signs are rejected outright
      "+80",       //
      "8080,",     // empty field
      ",64",       //
      "8080,,64",  //
      "8080,64,256,9",  // too many fields
      "1e4",            // no float syntax
      "8 080",          // inner whitespace
  };
  for (const char* text : bad) {
    EXPECT_THROW(dn::NetConfig::parse(text), std::invalid_argument)
        << "accepted: '" << text << "'";
  }
}

TEST(NetConfig, OutOfRangeFieldsThrow) {
  EXPECT_THROW(dn::NetConfig::parse("65536"), std::invalid_argument);
  EXPECT_THROW(dn::NetConfig::parse("99999999999999"), std::invalid_argument);
  EXPECT_THROW(dn::NetConfig::parse("8080,0"), std::invalid_argument);
  EXPECT_THROW(
      dn::NetConfig::parse("8080," + std::to_string(dn::kMaxConns + 1)),
      std::invalid_argument);
  EXPECT_THROW(
      dn::NetConfig::parse("8080,64," +
                           std::to_string(dn::kMinSendRingKb - 1)),
      std::invalid_argument);
  EXPECT_THROW(
      dn::NetConfig::parse("8080,64," +
                           std::to_string(dn::kMaxSendRingKb + 1)),
      std::invalid_argument);
}

TEST(NetConfig, ThrownMessageQuotesTheInput) {
  try {
    dn::NetConfig::parse("bogus,2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << "message should quote the offending text: " << e.what();
  }
}

// net::Server applies DJSTAR_NET in its constructor.
dn::ServerConfig one_thread_server(unsigned max_conns = 5) {
  dn::ServerConfig cfg;
  cfg.host.threads = 1;
  cfg.net.max_conns = max_conns;
  return cfg;
}

TEST(NetConfig, FromEnvUnsetReturnsNullopt) {
  ScopedEnv guard("DJSTAR_NET", nullptr);
  const dn::Server server(one_thread_server(5));
  EXPECT_EQ(server.config().net.max_conns, 5u);
}

TEST(NetConfig, FromEnvParsesASetValue) {
  ScopedEnv guard("DJSTAR_NET", "0,16,32");
  const dn::Server server(one_thread_server());
  EXPECT_EQ(server.config().net.port, 0);
  EXPECT_EQ(server.config().net.max_conns, 16u);
  EXPECT_EQ(server.config().net.send_ring_kb, 32u);
}

TEST(NetConfig, FromEnvSetButEmptyThrows) {
  ScopedEnv guard("DJSTAR_NET", "");
  EXPECT_THROW(dn::Server server(one_thread_server()), std::invalid_argument);
}

TEST(NetConfig, FromEnvGarbageThrows) {
  ScopedEnv guard("DJSTAR_NET", "not-a-port");
  EXPECT_THROW(dn::Server server(one_thread_server()), std::invalid_argument);
}
