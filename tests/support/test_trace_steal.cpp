// Steal-origin provenance on TraceSpan and the cycle-scoped ring read
// (collect_cycle) the attribution profiler depends on.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "djstar/support/flight.hpp"

namespace ds = djstar::support;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(TraceSteal, DefaultSpanHasNoStealOrigin) {
  ds::TraceSpan s;
  EXPECT_EQ(s.steal_from, -1);
}

TEST(TraceSteal, ExportOmitsOriginForLocalRuns) {
  // Backward compatibility: a trace with no stolen nodes must serialize
  // exactly as before the field existed — no steal_from args anywhere.
  const std::vector<ds::TraceProcess> procs = {
      {"local", 0,
       {{0.0, 10.0, 0, 3, ds::SpanKind::kRun},
        {2.0, 4.0, 1, -1, ds::SpanKind::kSteal}}}};

  const std::string path = testing::TempDir() + "/trace_no_steal.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  EXPECT_EQ(slurp(path).find("steal_from"), std::string::npos);
}

TEST(TraceSteal, ExportCarriesOriginForStolenRuns) {
  ds::TraceSpan s{0.0, 10.0, 1, 3, ds::SpanKind::kRun};
  s.steal_from = 0;
  const std::vector<ds::TraceProcess> procs = {{"stolen", 0, {s}}};

  const std::string path = testing::TempDir() + "/trace_steal.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  EXPECT_NE(slurp(path).find("\"steal_from\":0"), std::string::npos);
}

TEST(TraceSteal, CollectIntoReusesCapacityAndSorts) {
  ds::FlightRecorder fr;
  fr.configure(2);
  fr.begin_cycle();
  fr.record(0, {9.0, 9.5, 0, 7, ds::SpanKind::kRun});  // an older cycle
  fr.begin_cycle();
  fr.record(1, {5.0, 6.0, 1, 2, ds::SpanKind::kRun});
  fr.record(0, {7.0, 8.0, 0, 1, ds::SpanKind::kRun});
  fr.record(0, {0.0, 1.0, 0, 0, ds::SpanKind::kRun});

  std::vector<ds::TraceSpan> out;
  out.assign(100, {});  // stale contents must be discarded
  const std::size_t capacity = out.capacity();
  fr.collect_cycle(fr.cycle(), out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.capacity(), capacity);
  // Sorted by (thread, begin), matching collect_last().
  EXPECT_EQ(out[0].node, 0);
  EXPECT_EQ(out[1].node, 1);
  EXPECT_EQ(out[2].node, 2);

  const auto collected = fr.collect_last(1, 0.0);
  ASSERT_EQ(collected.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(collected[i].begin_us, out[i].begin_us);
    EXPECT_EQ(collected[i].thread, out[i].thread);
  }

  // A disabled ring yields an empty result, not stale data.
  fr.disable();
  fr.collect_cycle(fr.cycle(), out);
  EXPECT_TRUE(out.empty());
}
