// The engine's deck jobs: each deck's TP + GP as one node of the graph
// (DECK_A..DECK_D, ids 67..70), gating that deck's four sample players.
// Structure, the phase split of CycleBreakdown, and the rule that every
// deck advances exactly once per cycle whatever the graph's faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "djstar/core/chaos.hpp"
#include "djstar/engine/engine.hpp"
#include "djstar/support/time.hpp"

namespace de = djstar::engine;
namespace dc = djstar::core;
namespace su = djstar::support;

namespace {

constexpr const char* kDeckNames = "ABCD";

de::EngineConfig config(dc::Strategy s, unsigned threads) {
  de::EngineConfig cfg;
  cfg.strategy = s;
  cfg.threads = threads;
  return cfg;
}

/// Every deck's decoded transport and track position match.
void expect_same_decks(de::AudioEngine& a, de::AudioEngine& b,
                       const std::string& context) {
  for (unsigned d = 0; d < 4; ++d) {
    const auto& ta = a.deck(d).transport();
    const auto& tb = b.deck(d).transport();
    EXPECT_EQ(ta.position, tb.position) << context << " deck " << d;
    EXPECT_EQ(ta.frames_decoded, tb.frames_decoded) << context << " deck " << d;
    EXPECT_EQ(ta.locked, tb.locked) << context << " deck " << d;
    EXPECT_DOUBLE_EQ(ta.pitch, tb.pitch) << context << " deck " << d;
    EXPECT_EQ(a.deck(d).track().position(), b.deck(d).track().position())
        << context << " deck " << d;
  }
}

}  // namespace

TEST(DeckJobs, EngineGraphIsThePaperGraphPlusFourDeckJobs) {
  de::AudioEngine e(config(dc::Strategy::kSequential, 1));
  const de::DjStarGraph paper;  // no decks: the paper's 67 nodes
  const dc::CompiledGraph& cg = e.compiled();
  ASSERT_EQ(cg.node_count(), de::kPaperNodes + 4);
  for (dc::NodeId n = 0; n < de::kPaperNodes; ++n) {
    EXPECT_EQ(cg.name(n), paper.graph().name(n)) << "node " << n;
    EXPECT_FALSE(cg.always_runs(n)) << cg.name(n);
  }

  const auto jobs = e.graph_nodes().deck_jobs();
  ASSERT_EQ(jobs.size(), 4u);
  for (unsigned d = 0; d < 4; ++d) {
    const dc::NodeId job = jobs[d];
    const std::string deck(1, kDeckNames[d]);
    EXPECT_EQ(job, de::kPaperNodes + d);
    EXPECT_EQ(cg.name(job), "DECK_" + deck);
    EXPECT_EQ(cg.in_degree(job), 0u) << "a deck job is a source";
    EXPECT_TRUE(cg.always_runs(job));
    EXPECT_EQ(e.graph_nodes().kind(job), de::NodeKind::kDeckJob);
    EXPECT_EQ(e.graph_nodes().degrade_tier(job), de::DegradeTier::kEssential);

    // It precedes exactly its deck's four sample players.
    std::vector<std::string> succ;
    for (dc::NodeId s : cg.successors(job)) succ.push_back(cg.name(s));
    std::sort(succ.begin(), succ.end());
    const std::vector<std::string> want = {"SP_" + deck + "1", "SP_" + deck + "2",
                                           "SP_" + deck + "3", "SP_" + deck + "4"};
    EXPECT_EQ(succ, want) << "DECK_" << deck;
  }

  // The deck jobs' edges are the only ones added to the paper's graph.
  for (dc::NodeId n = 0; n < de::kPaperNodes; ++n) {
    std::vector<dc::NodeId> ours(cg.successors(n).begin(),
                                 cg.successors(n).end());
    const auto theirs = paper.graph().successors(n);
    EXPECT_EQ(ours, std::vector<dc::NodeId>(theirs.begin(), theirs.end()))
        << cg.name(n);
  }
}

TEST(DeckJobs, EngineGraphIsRaceFree) {
  de::AudioEngine e(config(dc::Strategy::kSequential, 1));
  const de::DjStarGraph& gn = e.graph_nodes();
  const auto hazards = gn.accesses().check(gn.graph());
  for (const auto& h : hazards) {
    ADD_FAILURE() << h.kind << " hazard between " << gn.graph().name(h.a)
                  << " and " << gn.graph().name(h.b);
  }
  EXPECT_TRUE(hazards.empty());
  // Each deck job declares its write of Deck::input().
  EXPECT_EQ(gn.accesses().declared_nodes(),
            de::DjStarGraph{}.accesses().declared_nodes() + 4);
}

TEST(DeckJobs, BreakdownPartsAddUpToNoMoreThanTheCycle) {
  de::AudioEngine e(config(dc::Strategy::kSequential, 1));
  for (dc::Strategy s : dc::kAllStrategies) {
    for (unsigned threads : {1u, 2u, 4u}) {
      e.set_strategy(s, threads);
      const std::string context =
          std::string(dc::to_string(s)) + " x" + std::to_string(threads);
      for (int cycle = 0; cycle < 20; ++cycle) {
        const auto t0 = su::now();
        const de::CycleBreakdown c = e.run_cycle();
        const double wall_us = su::since_us(t0);
        EXPECT_GT(c.tp_us, 0.0) << context << " cycle " << cycle;
        EXPECT_GE(c.gp_us, 0.0) << context << " cycle " << cycle;
        EXPECT_GE(c.graph_us, 0.0) << context << " cycle " << cycle;
        EXPECT_GE(c.vc_us, 0.0) << context << " cycle " << cycle;
        EXPECT_LE(c.total_us(), wall_us + 1e-6)
            << context << " cycle " << cycle;
      }
    }
  }
}

TEST(DeckJobs, DecksAdvanceThroughDrainedCycles) {
  // Throw in every cycle on SP_A1, and on UTIL_A1, which the sequential
  // queue runs before any deck job: every cycle drains, and the decks
  // still end where a clean engine's do.
  constexpr int kCycles = 40;
  de::AudioEngine clean(config(dc::Strategy::kSequential, 1));
  de::AudioEngine faulty(config(dc::Strategy::kSequential, 1));
  dc::chaos::FaultPlan plan;
  plan.throw_permille = 1000;
  plan.targets = {0, 4};
  ASSERT_EQ(faulty.compiled().name(0), "SP_A1");
  ASSERT_EQ(faulty.compiled().name(4), "UTIL_A1");
  faulty.arm_faults(plan);
  for (dc::Strategy s : {dc::Strategy::kSequential, dc::Strategy::kBusyWait,
                         dc::Strategy::kWorkStealing}) {
    const unsigned threads = s == dc::Strategy::kSequential ? 1 : 4;
    clean.set_strategy(s, threads);
    faulty.set_strategy(s, threads);
    for (int i = 0; i < kCycles; ++i) {
      clean.run_cycle();
      faulty.run_cycle();
      ASSERT_TRUE(faulty.compiled().cycle_failed()) << "cycle " << i;
    }
    expect_same_decks(faulty, clean, std::string(dc::to_string(s)));
  }
}

TEST(DeckJobs, WatchdogCancelledCycleStillAdvancesEveryDeck) {
  // A stall on UTIL_A1, the sequential queue's first node, outlasts the
  // watchdog budget: the cancel drains the rest of the cycle, deck jobs
  // included unless they always run.
  de::AudioEngine clean(config(dc::Strategy::kSequential, 1));
  de::AudioEngine e(config(dc::Strategy::kSequential, 1));
  clean.run_cycles(5);
  e.run_cycles(5);
  de::SupervisorConfig sc;
  sc.cancel_budget_us = 2000.0;  // well under the 30 ms stall
  sc.fault_trip = 1000;          // keep the ladder at full quality
  sc.use_watchdog = true;
  e.enable_supervision(sc);

  dc::chaos::FaultPlan plan;
  plan.stall_permille = 1000;
  plan.stall_us = 30000.0;
  plan.targets = {4};  // UTIL_A1
  e.arm_faults(plan);
  std::vector<std::size_t> before;
  for (unsigned d = 0; d < 4; ++d) {
    before.push_back(e.deck(d).track().position());
  }
  clean.run_cycle();
  e.run_cycle();
  ASSERT_EQ(e.supervisor().stats().watchdog_cancels, 1u);
  ASSERT_EQ(e.supervisor().stats().cancels, 1u);
  expect_same_decks(e, clean, "cancelled cycle");
  for (unsigned d = 0; d < 4; ++d) {
    EXPECT_NE(e.deck(d).track().position(), before[d]) << "deck " << d;
  }
}

TEST(DeckJobs, InjectedFaultsNeverLandOnADeckJob) {
  de::AudioEngine e(config(dc::Strategy::kSequential, 1));
  dc::chaos::FaultPlan plan;
  plan.seed = 17;
  plan.throw_permille = 1000;  // no targets: every eligible node throws
  e.arm_faults(plan);
  for (dc::Strategy s : {dc::Strategy::kSequential, dc::Strategy::kBusyWait,
                         dc::Strategy::kWorkStealing}) {
    e.set_strategy(s, s == dc::Strategy::kSequential ? 1 : 4);
    for (int i = 0; i < 30; ++i) {
      e.run_cycle();
      const std::int32_t n = e.compiled().fault_node();
      ASSERT_GE(n, 0) << dc::to_string(s) << " cycle " << i;
      EXPECT_LT(static_cast<std::size_t>(n), de::kPaperNodes)
          << dc::to_string(s) << " cycle " << i << ": "
          << e.compiled().name(static_cast<dc::NodeId>(n));
    }
  }
}
