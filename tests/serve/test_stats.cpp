// Unit tests for the ServeStats fleet registry and QoS utilities.
#include <gtest/gtest.h>

#include <vector>

#include "djstar/core/team.hpp"
#include "djstar/serve/qos.hpp"
#include "djstar/serve/stats.hpp"
#include "djstar/serve/synthetic.hpp"

namespace dc = djstar::core;
namespace ds = djstar::serve;

TEST(QoSVocabulary, ParsesNamesAndAliases) {
  EXPECT_EQ(ds::parse_qos("realtime"), ds::QoS::kRealtime);
  EXPECT_EQ(ds::parse_qos("rt"), ds::QoS::kRealtime);
  EXPECT_EQ(ds::parse_qos("standard"), ds::QoS::kStandard);
  EXPECT_EQ(ds::parse_qos("std"), ds::QoS::kStandard);
  EXPECT_EQ(ds::parse_qos("besteffort"), ds::QoS::kBestEffort);
  EXPECT_EQ(ds::parse_qos("be"), ds::QoS::kBestEffort);
  EXPECT_EQ(ds::parse_qos("bogus"), std::nullopt);
  EXPECT_STREQ(ds::to_string(ds::QoS::kRealtime), "realtime");
}

TEST(QoSVocabulary, RankOrdersStrictestFirst) {
  EXPECT_LT(ds::rank(ds::QoS::kRealtime), ds::rank(ds::QoS::kStandard));
  EXPECT_LT(ds::rank(ds::QoS::kStandard), ds::rank(ds::QoS::kBestEffort));
}

namespace {

class ServeStatsTest : public testing::Test {
 protected:
  ServeStatsTest() : team_(2) {}

  std::unique_ptr<ds::Session> run_session(ds::SessionId id, ds::QoS qos,
                                           unsigned cycles) {
    ds::SyntheticSpec spec;
    spec.qos = qos;
    auto s = std::make_unique<ds::Session>(id, ds::make_synthetic_session(spec),
                                           team_, dc::ExecOptions{},
                                           dc::WorkStealingOptions{},
                                           djstar::engine::SupervisorConfig{});
    for (unsigned i = 0; i < cycles; ++i) {
      s->run_cycle(0.0, s->deadline_us());
    }
    return s;
  }

  dc::Team team_;
};

}  // namespace

TEST_F(ServeStatsTest, AggregatesLiveSessionsPerQoS) {
  ds::ServeStats reg;
  reg.note_admitted(ds::QoS::kRealtime);
  reg.note_admitted(ds::QoS::kBestEffort);

  auto a = run_session(1, ds::QoS::kRealtime, 5);
  auto b = run_session(2, ds::QoS::kBestEffort, 7);
  const std::vector<const ds::Session*> live{a.get(), b.get()};
  const ds::FleetStats f = reg.aggregate(live);

  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kRealtime)].sessions, 1u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kStandard)].sessions, 0u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kBestEffort)].sessions, 1u);
  EXPECT_EQ(f.cycles, 12u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kRealtime)].cycles, 5u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kBestEffort)].cycles, 7u);
  ASSERT_EQ(f.sessions.size(), 2u);
  EXPECT_GT(f.p50_latency_us, 0.0);
  EXPECT_GE(f.p99_latency_us, f.p50_latency_us);
}

TEST_F(ServeStatsTest, RetireKeepsHistoryAfterSessionIsGone) {
  ds::ServeStats reg;
  reg.note_admitted(ds::QoS::kStandard);
  {
    auto s = run_session(1, ds::QoS::kStandard, 9);
    reg.retire(*s, /*was_shed=*/false);
  }  // session destroyed; its cycles must survive in the registry

  const ds::FleetStats f = reg.aggregate({});
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kStandard)].shed, 0u);
  EXPECT_EQ(f.cycles, 9u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kStandard)].cycles, 9u);
  EXPECT_GT(f.p99_latency_us, 0.0);
  EXPECT_TRUE(f.sessions.empty());
}

TEST_F(ServeStatsTest, ShedRetirementCountsPerQoS) {
  ds::ServeStats reg;
  reg.note_admitted(ds::QoS::kBestEffort);
  auto s = run_session(3, ds::QoS::kBestEffort, 2);
  reg.retire(*s, /*was_shed=*/true);

  const ds::FleetStats f = reg.aggregate({});
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kBestEffort)].shed, 1u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kBestEffort)].cycles, 2u);
  EXPECT_EQ(f.by_qos[ds::rank(ds::QoS::kStandard)].shed, 0u);
}

TEST_F(ServeStatsTest, QueuedPeakTracksHighWaterMark) {
  ds::ServeStats reg;
  reg.note_queued_depth(2);
  reg.note_queued_depth(5);
  reg.note_queued_depth(1);
  EXPECT_EQ(reg.aggregate({}).queued_peak, 5u);
}
