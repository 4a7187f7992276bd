// The one DJSTAR_* reader (support/env) and the contract every variable
// follows through it: unset leaves the configured default, a blank value
// throws naming the variable, surrounding whitespace is trimmed, and a
// malformed value throws quoting the text. The table drives each
// variable through the code that consumes it.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "djstar/core/thread_count.hpp"
#include "djstar/engine/engine.hpp"
#include "djstar/net/server.hpp"
#include "djstar/serve/host.hpp"
#include "djstar/support/env.hpp"

namespace env = djstar::support::env;
namespace de = djstar::engine;
namespace ds = djstar::serve;
namespace dn = djstar::net;

using djstar_test::ScopedEnv;

// ---- the reader and the field parsers ---------------------------------------

TEST(Env, GetTrimsAndRejectsBlank) {
  ScopedEnv guard("DJSTAR_ENV_TEST", nullptr);
  EXPECT_FALSE(env::get("DJSTAR_ENV_TEST").has_value());
  guard.set(" \tvalue with space\n");
  EXPECT_EQ(env::get("DJSTAR_ENV_TEST"), "value with space");
  for (const char* blank : {"", " ", "\t \n"}) {
    guard.set(blank);
    try {
      (void)env::get("DJSTAR_ENV_TEST", "path");
      ADD_FAILURE() << "blank value accepted: '" << blank << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "DJSTAR_ENV_TEST: empty path");
    }
  }
}

TEST(Env, SplitKeepsEveryFieldUntrimmed) {
  using V = std::vector<std::string_view>;
  EXPECT_EQ(env::split(""), V{""});
  EXPECT_EQ(env::split("a"), V{"a"});
  EXPECT_EQ(env::split("a,"), (V{"a", ""}));
  EXPECT_EQ(env::split(" a , b,,c"), (V{" a ", " b", "", "c"}));
  EXPECT_EQ(env::trim(" \t a b \n"), "a b");
}

TEST(Env, ParseUintIsWholeFieldAndClampsAtTheCap) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(env::parse_uint("0"), 0u);
  EXPECT_EQ(env::parse_uint("18446744073709551615"), kMax);
  EXPECT_FALSE(env::parse_uint("18446744073709551616"));  // no cap: overflow
  EXPECT_EQ(env::parse_uint("18446744073709551616", 512), 512u);
  EXPECT_EQ(env::parse_uint("513", 512), 512u);
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "1x", "1.0", "0x10"}) {
    EXPECT_FALSE(env::parse_uint(bad, 512)) << "accepted '" << bad << "'";
  }
  // Digits past the cap do not excuse trailing garbage.
  EXPECT_FALSE(env::parse_uint("99999999999x", 512));
}

TEST(Env, ParseDoubleConsumesTheWholeField) {
  EXPECT_EQ(env::parse_double("0.25"), 0.25);
  EXPECT_EQ(env::parse_double("-3"), -3.0);
  EXPECT_EQ(env::parse_double("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "1.5x", "1,5"}) {
    EXPECT_FALSE(env::parse_double(bad)) << "accepted '" << bad << "'";
  }
}

// ---- one contract, every variable -------------------------------------------

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

de::EngineConfig one_thread_engine() {
  de::EngineConfig cfg;
  cfg.strategy = djstar::core::Strategy::kSequential;
  cfg.threads = 1;
  return cfg;
}

ds::HostConfig one_thread_host() {
  ds::HostConfig cfg;
  cfg.threads = 1;
  return cfg;
}

struct EnvRow {
  const char* var;
  std::string unset;      ///< what the consumer resolves while unset
  std::string padded;     ///< a valid value wrapped in whitespace
  std::string parsed;     ///< what the consumer resolves from `padded`
  const char* malformed;  ///< nullptr: any non-blank value is valid
  std::function<std::string()> probe;  ///< runs the consumer
};

std::vector<EnvRow> contract_table() {
  const std::string flight = testing::TempDir() + "env_table_flight.json";
  const std::string trace = testing::TempDir() + "env_table_trace.json";
  const std::string metrics = testing::TempDir() + "env_table_metrics.prom";
  const auto written = [](const std::string& path,
                          const std::function<void()>& run) {
    std::remove(path.c_str());
    run();
    const bool ok = file_exists(path);
    std::remove(path.c_str());
    return ok ? path : std::string("off");
  };
  return {
      {"DJSTAR_THREADS", "3", " 5 ", "5", "lots",
       [] { return std::to_string(djstar::core::resolve_thread_count(3)); }},
      {"DJSTAR_HEAL", "off", " respawn ", "respawn", "maybe",
       [] {
         return std::string(
             to_string(djstar_test::with_env_overrides().heal.mode));
       }},
      {"DJSTAR_PROF", "off", "  attrib+hw  ", "attrib+hw", "bogus",
       [] {
         return std::string(
             to_string(djstar_test::with_env_overrides().profiler.mode));
       }},
      {"DJSTAR_SLO", "off", " on , 0.02 ", "on,0.02", "bogus",
       [] {
         const auto slo = djstar_test::with_env_overrides().slo;
         std::ostringstream out;
         out << (slo.enabled ? "on," : "off");
         if (slo.enabled) out << slo.spec.miss_ratio;
         return out.str();
       }},
      {"DJSTAR_FAULTS", "none", " seed=5,throw=8 ", "armed", "thorw=5",
       [] {
         de::AudioEngine engine(one_thread_engine());
         return std::string(engine.compiled().faults_armed() ? "armed"
                                                             : "none");
       }},
      {"DJSTAR_FLIGHT", "off", " " + flight + " ", flight, nullptr,
       [] {
         de::AudioEngine engine(one_thread_engine());
         return engine.telemetry_enabled()
                    ? engine.telemetry().config().flight_dump_path
                    : std::string("off");
       }},
      {"DJSTAR_TRACE", "off", "\t" + trace + "\t", trace, nullptr,
       [=] {
         return written(trace, [] {
           de::AudioEngine engine(one_thread_engine());
           engine.run_cycle();
         });
       }},
      {"DJSTAR_METRICS", "off", " " + metrics + " ", metrics, nullptr,
       [=] {
         // The exporter writes once on start; the destructor joins it.
         return written(metrics,
                        [] { ds::EngineHost host(one_thread_host()); });
       }},
      {"DJSTAR_BREAKER", "off", " 5 , 75 ", "5,75", "garbage",
       [] {
         const ds::EngineHost host(one_thread_host());
         const ds::BreakerConfig& b = host.config().breaker;
         if (!b.enabled()) return std::string("off");
         return std::to_string(b.trip_failures) + "," +
                std::to_string(static_cast<unsigned>(b.backoff_ms));
       }},
      {"DJSTAR_NET", "0,64,256", " 0 , 16 , 32 ", "0,16,32", "not-a-port",
       [] {
         dn::ServerConfig cfg;
         cfg.host = one_thread_host();
         const dn::Server server(cfg);
         const dn::NetConfig& n = server.config().net;
         return std::to_string(n.port) + "," + std::to_string(n.max_conns) +
                "," + std::to_string(n.send_ring_kb);
       }},
      {"DJSTAR_SIM_ITERS", "10000", " 20 ", "20", "10k",
       [] { return std::to_string(djstar::bench::sim_iters()); }},
      {"DJSTAR_MEASURE_ITERS", "1500", " 30 ", "30", "banana",
       [] { return std::to_string(djstar::bench::measure_iters()); }},
      {"DJSTAR_BENCH_OUT", "x.csv", " /tmp/out ", "/tmp/out/x.csv", nullptr,
       [] { return djstar::bench::out_path("x.csv"); }},
  };
}

/// What the row's consumer resolves, or "throws: <message>".
std::string outcome(const EnvRow& row) {
  try {
    return row.probe();
  } catch (const std::invalid_argument& e) {
    return std::string("throws: ") + e.what();
  }
}

}  // namespace

TEST(EnvContract, EveryVariableFollowsTheOneContract) {
  const std::vector<EnvRow> table = contract_table();
  // Every probe builds engines or hosts that read all the variables, so
  // each row runs with the other variables unset.
  std::deque<ScopedEnv> cleared;
  for (const EnvRow& row : table) cleared.emplace_back(row.var, nullptr);

  for (std::size_t i = 0; i < table.size(); ++i) {
    const EnvRow& row = table[i];
    SCOPED_TRACE(row.var);
    ScopedEnv& var = cleared[i];

    var.set(nullptr);
    EXPECT_EQ(outcome(row), row.unset);

    var.set(" ");
    const std::string blank = outcome(row);
    EXPECT_EQ(blank.rfind("throws: ", 0), 0u) << "blank value accepted";
    EXPECT_NE(blank.find(row.var), std::string::npos)
        << "message should name the variable: " << blank;

    var.set(row.padded.c_str());
    EXPECT_EQ(outcome(row), row.parsed);

    if (row.malformed != nullptr) {
      var.set(row.malformed);
      const std::string bad = outcome(row);
      EXPECT_EQ(bad.rfind("throws: ", 0), 0u)
          << "malformed value accepted: " << row.malformed;
      EXPECT_NE(bad.find(row.malformed), std::string::npos)
          << "message should quote the text: " << bad;
    }
    var.set(nullptr);
  }
}
