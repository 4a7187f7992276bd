// Tests for the always-on flight recorder: overwriting ring semantics,
// cycle-window collection with timeline stitching, and Chrome dumps.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "djstar/support/flight.hpp"

namespace ds = djstar::support;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

ds::TraceSpan span(double begin, double end, int node) {
  return {begin, end, 0, node, ds::SpanKind::kRun};
}

}  // namespace

TEST(FlightRecorder, DisabledByDefaultAndRecordIsNoOp) {
  ds::FlightRecorder fr;
  EXPECT_FALSE(fr.enabled());
  fr.record(0, span(0, 1, 0));  // must not crash
  EXPECT_EQ(fr.total_recorded(), 0u);
}

TEST(FlightRecorder, ConfigureAllocatesLanesAndDisableDrops) {
  ds::FlightRecorder fr;
  fr.configure(3, 16);
  EXPECT_TRUE(fr.enabled());
  EXPECT_EQ(fr.thread_count(), 3u);
  fr.record(2, span(0, 1, 5));
  EXPECT_EQ(fr.recorded(2), 1u);
  fr.disable();
  EXPECT_FALSE(fr.enabled());
  fr.record(2, span(0, 1, 5));
  EXPECT_EQ(fr.total_recorded(), 0u);
}

TEST(FlightRecorder, OutOfRangeLaneIsIgnored) {
  ds::FlightRecorder fr;
  fr.configure(1, 8);
  fr.record(7, span(0, 1, 0));
  EXPECT_EQ(fr.total_recorded(), 0u);
}

TEST(FlightRecorder, OverwritingRingKeepsTheNewestSpans) {
  ds::FlightRecorder fr;
  fr.configure(1, 4);  // ring of 4
  fr.begin_cycle();
  for (int i = 0; i < 10; ++i) fr.record(0, span(i, i + 1, i));
  EXPECT_EQ(fr.recorded(0), 10u);  // monotonic, exceeds capacity

  const std::vector<ds::TraceSpan> got = fr.collect_last(1, 1000.0);
  ASSERT_EQ(got.size(), 4u);  // only the ring's worth retained
  // The survivors are the newest four (nodes 6..9).
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, int(6 + i));
  }
}

TEST(FlightRecorder, CollectLastFiltersToTheRequestedWindow) {
  ds::FlightRecorder fr;
  fr.configure(1, 64);
  // Cycle 1: node 100; cycle 2: node 200; cycle 3: node 300.
  fr.begin_cycle();
  fr.record(0, span(10, 20, 100));
  fr.begin_cycle();
  fr.record(0, span(10, 20, 200));
  fr.begin_cycle();
  fr.record(0, span(10, 20, 300));

  const std::vector<ds::TraceSpan> last2 = fr.collect_last(2, 1000.0);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].node, 200);
  EXPECT_EQ(last2[1].node, 300);
  // Timeline stitching: cycle 2 is the window start (ts offset 0),
  // cycle 3 lands one period later.
  EXPECT_DOUBLE_EQ(last2[0].begin_us, 10.0);
  EXPECT_DOUBLE_EQ(last2[1].begin_us, 1010.0);
  EXPECT_DOUBLE_EQ(last2[1].end_us, 1020.0);
}

TEST(FlightRecorder, CollectLastCoversAllLanes) {
  ds::FlightRecorder fr;
  fr.configure(2, 8);
  fr.begin_cycle();
  fr.record(0, {0, 5, 0, 1, ds::SpanKind::kRun});
  fr.record(1, {2, 7, 1, 2, ds::SpanKind::kRun});
  const std::vector<ds::TraceSpan> got = fr.collect_last(1, 1000.0);
  ASSERT_EQ(got.size(), 2u);
  // Sorted by (thread, ts).
  EXPECT_EQ(got[0].thread, 0u);
  EXPECT_EQ(got[1].thread, 1u);
}

TEST(FlightRecorder, CollectSortsByLaneThenTime) {
  ds::FlightRecorder fr;
  fr.configure(2, 8);
  fr.begin_cycle();
  fr.record(1, {5.0, 6.0, 1, 3, ds::SpanKind::kRun});
  fr.record(0, {7.0, 8.0, 0, 1, ds::SpanKind::kRun});
  fr.record(0, {1.0, 2.0, 0, 2, ds::SpanKind::kRun});
  const std::vector<ds::TraceSpan> spans = fr.collect_last(1, 1000.0);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].node, 2);
  EXPECT_EQ(spans[1].node, 1);
  EXPECT_EQ(spans[2].node, 3);
}

TEST(FlightRecorder, CollectIsIdempotentAndNonDestructive) {
  ds::FlightRecorder fr;
  fr.configure(2, 8);
  fr.begin_cycle();
  fr.record(0, {0.0, 1.0, 0, 1, ds::SpanKind::kRun});
  fr.record(1, {0.0, 1.0, 1, 2, ds::SpanKind::kSteal});
  const std::vector<ds::TraceSpan> first = fr.collect_last(1, 1000.0);
  const std::vector<ds::TraceSpan> second = fr.collect_last(1, 1000.0);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].node, second[i].node);
    EXPECT_EQ(first[i].kind, second[i].kind);
  }
  EXPECT_EQ(fr.total_recorded(), 2u);
}

TEST(FlightRecorder, CollectOrdersEqualBeginTimesStably) {
  // Spans with identical begin times must still group by lane; the
  // comparator's thread key dominates.
  ds::FlightRecorder fr;
  fr.configure(3, 8);
  fr.begin_cycle();
  fr.record(2, {1.0, 2.0, 2, 20, ds::SpanKind::kRun});
  fr.record(0, {1.0, 2.0, 0, 0, ds::SpanKind::kRun});
  fr.record(1, {1.0, 2.0, 1, 10, ds::SpanKind::kRun});
  const std::vector<ds::TraceSpan> spans = fr.collect_last(1, 1000.0);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].thread, 0u);
  EXPECT_EQ(spans[1].thread, 1u);
  EXPECT_EQ(spans[2].thread, 2u);
}

TEST(FlightRecorder, ReconfigureDiscardsHistory) {
  ds::FlightRecorder fr;
  fr.configure(1, 8);
  fr.begin_cycle();
  fr.record(0, span(0, 1, 1));
  fr.configure(2, 8);
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.collect_last(10, 1000.0).empty());
}

TEST(FlightRecorder, DumpChromeTraceWritesValidDocument) {
  ds::FlightRecorder fr;
  fr.configure(2, 16);
  fr.begin_cycle();
  fr.record(0, span(0, 100, 3));
  fr.record(1, span(50, 150, 4));
  const std::string path = testing::TempDir() + "/flight_dump.json";
  ASSERT_TRUE(fr.dump_chrome_trace(path, 4, 2900.0, "incident", 7));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"incident\"}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_FALSE(fr.dump_chrome_trace("/nonexistent-dir/f.json", 4, 2900.0));
}
