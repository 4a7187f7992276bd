// Unit tests for djstar/support/trace.hpp.
#include "djstar/support/trace.hpp"

#include "djstar/support/flight.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace ds = djstar::support;

TEST(SpanKind, Names) {
  EXPECT_STREQ(ds::to_string(ds::SpanKind::kRun), "run");
  EXPECT_STREQ(ds::to_string(ds::SpanKind::kSleep), "sleep");
  EXPECT_STREQ(ds::to_string(ds::SpanKind::kSteal), "steal");
}

TEST(TraceSpan, Duration) {
  ds::TraceSpan s{1.5, 4.0, 0, 0, ds::SpanKind::kRun};
  EXPECT_DOUBLE_EQ(s.duration_us(), 2.5);
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(ChromeTrace, RecorderExportsCompleteEvents) {
  ds::FlightRecorder fr;
  fr.configure(2);
  fr.begin_cycle();
  fr.record(0, {10.0, 25.0, 0, 3, ds::SpanKind::kRun});
  fr.record(1, {12.0, 14.0, 1, -1, ds::SpanKind::kSteal});

  const std::string path = testing::TempDir() + "/chrome_trace.json";
  ASSERT_TRUE(fr.dump_chrome_trace(path, 1, 1000.0, "unit", 7));
  const std::string json = slurp(path);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process metadata names the track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"unit\"}"), std::string::npos);
  // Complete events with microsecond ts/dur under the given pid, one tid
  // per worker.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15.000"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7,\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":7,\"tid\":1"), std::string::npos);
}

TEST(ChromeTrace, ZeroLengthSpansGetEpsilonDuration) {
  const std::vector<ds::TraceProcess> procs = {
      {"eps", 0, {{5.0, 5.0, 0, 1, ds::SpanKind::kRun}}}};
  const std::string path = testing::TempDir() + "/chrome_trace_eps.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  EXPECT_NE(slurp(path).find("\"dur\":0.001"), std::string::npos);
}

TEST(ChromeTrace, MultiProcessExportSeparatesPids) {
  std::vector<ds::TraceProcess> procs(2);
  procs[0] = {"session-a", 1, {{0.0, 1.0, 0, 0, ds::SpanKind::kRun}}};
  procs[1] = {"session-b", 2, {{0.0, 2.0, 1, 4, ds::SpanKind::kRun}}};

  const std::string path = testing::TempDir() + "/chrome_trace_multi.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"args\":{\"name\":\"session-a\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"session-b\"}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"tid\":1"), std::string::npos);
}

TEST(ChromeTrace, FailsOnUnwritablePath) {
  EXPECT_FALSE(ds::write_chrome_trace("/nonexistent-dir/trace.json", {}));
}

// ---- JSON robustness (observability satellite) ------------------------------

TEST(ChromeTrace, EscapesQuotesAndBackslashesInProcessNames) {
  // Session names are user-supplied; a quote or backslash must not break
  // the JSON document.
  std::vector<ds::TraceProcess> procs(1);
  procs[0] = {"deck \"A\" \\ live", 1, {{0.0, 1.0, 0, 0, ds::SpanKind::kRun}}};
  const std::string path = testing::TempDir() + "/chrome_trace_escape.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("deck \\\"A\\\" \\\\ live"), std::string::npos);
  // The raw (unescaped) name must not appear.
  EXPECT_EQ(json.find("\"name\":\"deck \"A\""), std::string::npos);
}

TEST(ChromeTrace, EscapesControlCharactersInProcessNames) {
  std::vector<ds::TraceProcess> procs(1);
  // "\x01" is concatenated separately: "\x01c" would parse as one
  // 0x1C character, not 0x01 followed by 'c'.
  procs[0] = {std::string("line\nbreak\ttab" "\x01" "ctl"), 3, {}};
  const std::string path = testing::TempDir() + "/chrome_trace_ctl.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("line\\nbreak\\ttab\\u0001ctl"), std::string::npos);
  // No raw control bytes inside the document.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(ChromeTrace, EmptyRecorderProducesValidSkeleton) {
  ds::FlightRecorder fr;
  fr.configure(2);
  const std::string path = testing::TempDir() + "/chrome_trace_empty.json";
  ASSERT_TRUE(fr.dump_chrome_trace(path, 1, 1000.0, "empty"));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"empty\"}"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);  // no spans
}

TEST(ChromeTrace, MultiProcessPidsStayUnique) {
  // The serve host assigns pid = session id; same-named sessions must
  // still land on distinct tracks.
  std::vector<ds::TraceProcess> procs(3);
  procs[0] = {"worker", 1, {{0.0, 1.0, 0, 0, ds::SpanKind::kRun}}};
  procs[1] = {"worker", 2, {{0.0, 1.0, 0, 1, ds::SpanKind::kRun}}};
  procs[2] = {"worker", 3, {{0.0, 1.0, 0, 2, ds::SpanKind::kRun}}};
  const std::string path = testing::TempDir() + "/chrome_trace_pids.json";
  ASSERT_TRUE(ds::write_chrome_trace(path, procs));
  const std::string json = slurp(path);
  for (int pid = 1; pid <= 3; ++pid) {
    const std::string meta = "\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    const std::string ev = "\"pid\":" + std::to_string(pid) + ",\"tid\":0";
    EXPECT_NE(json.find(meta), std::string::npos) << pid;
    EXPECT_NE(json.find(ev), std::string::npos) << pid;
    // Exactly one process_name record per pid.
    EXPECT_EQ(json.find(meta), json.rfind(meta)) << pid;
  }
}
