// Steal-origin provenance on TraceSpan and the cycle-scoped recorder
// operations (clear_spans / collect_into) the attribution profiler
// depends on.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "djstar/support/trace.hpp"

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
  ds::TraceRecorder tr;
  tr.arm(2);
  tr.record(0, {0.0, 10.0, 0, 3, ds::SpanKind::kRun});
  tr.record(1, {2.0, 4.0, 1, -1, ds::SpanKind::kSteal});

  const std::string path = testing::TempDir() + "/trace_no_steal.json";
  ASSERT_TRUE(tr.write_chrome_trace(path));
  EXPECT_EQ(slurp(path).find("steal_from"), std::string::npos);
}

TEST(TraceSteal, ExportCarriesOriginForStolenRuns) {
  ds::TraceRecorder tr;
  tr.arm(2);
  ds::TraceSpan s{0.0, 10.0, 1, 3, ds::SpanKind::kRun};
  s.steal_from = 0;
  tr.record(1, s);

  const std::string path = testing::TempDir() + "/trace_steal.json";
  ASSERT_TRUE(tr.write_chrome_trace(path));
  EXPECT_NE(slurp(path).find("\"steal_from\":0"), std::string::npos);
}

TEST(TraceSteal, ClearSpansKeepsLanesArmed) {
  ds::TraceRecorder tr;
  tr.arm(2, /*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    tr.record(0, {1.0 * i, 1.0 * i + 1, 0, i, ds::SpanKind::kRun});
  }
  EXPECT_TRUE(tr.truncated());

  tr.clear_spans();
  EXPECT_TRUE(tr.armed());
  EXPECT_EQ(tr.collect().size(), 0u);
  EXPECT_EQ(tr.total_dropped(), 0u) << "drop counters reset with the spans";

  // Lanes reusable at full capacity after the clear.
  for (int i = 0; i < 4; ++i) {
    tr.record(0, {1.0 * i, 1.0 * i + 1, 0, i, ds::SpanKind::kRun});
  }
  EXPECT_EQ(tr.collect().size(), 4u);
  EXPECT_FALSE(tr.truncated());
}

TEST(TraceSteal, CollectIntoReusesCapacityAndSorts) {
  ds::TraceRecorder tr;
  tr.arm(2);
  tr.record(1, {5.0, 6.0, 1, 2, ds::SpanKind::kRun});
  tr.record(0, {7.0, 8.0, 0, 1, ds::SpanKind::kRun});
  tr.record(0, {0.0, 1.0, 0, 0, ds::SpanKind::kRun});

  std::vector<ds::TraceSpan> out;
  out.assign(100, {});  // stale contents must be discarded
  tr.collect_into(out);
  ASSERT_EQ(out.size(), 3u);
  // Sorted by (thread, begin), matching collect().
  EXPECT_EQ(out[0].node, 0);
  EXPECT_EQ(out[1].node, 1);
  EXPECT_EQ(out[2].node, 2);

  const auto collected = tr.collect();
  ASSERT_EQ(collected.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(collected[i].begin_us, out[i].begin_us);
    EXPECT_EQ(collected[i].thread, out[i].thread);
  }

  // Disarmed recorder yields an empty result, not stale data.
  tr.disarm();
  tr.collect_into(out);
  EXPECT_TRUE(out.empty());
}
