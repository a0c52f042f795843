#include "contest/json_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace ofl::contest {
namespace {

ResultRow sampleRow() {
  ResultRow row;
  // Move-assign temporaries: GCC 12 flags operator=(const char*) here
  // with a false -Wrestrict.
  row.design = std::string("s");
  row.team = std::string("ours");
  row.runtimeSeconds = 1.25;
  row.memoryMiB = 512.0;
  row.raw.overlay = 1e6;
  row.raw.variation = 0.01;
  row.raw.fillCount = 1234;
  row.scores.quality = 0.72;
  row.scores.total = 0.9;
  return row;
}

TEST(JsonReportTest, EmptyRows) {
  EXPECT_EQ(toJson({}), "[\n]\n");
}

TEST(JsonReportTest, ContainsAllKeysAndValues) {
  const std::string json = toJson({sampleRow()});
  for (const char* needle :
       {"\"design\": \"s\"", "\"team\": \"ours\"",
        "\"runtime_seconds\": 1.25", "\"raw_overlay\": 1e+06",
        "\"fill_count\": 1234", "\"quality\": 0.72", "\"score\": 0.9"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(JsonReportTest, MultipleRowsCommaSeparated) {
  ResultRow a = sampleRow();
  ResultRow b = sampleRow();
  b.team = "greedy";
  const std::string json = toJson({a, b});
  // Exactly one comma between objects, none after the last.
  EXPECT_NE(json.find("},\n"), std::string::npos);
  EXPECT_EQ(json.find("},\n]"), std::string::npos);
  EXPECT_NE(json.find("}\n]"), std::string::npos);
}

TEST(JsonReportTest, EscapesQuotes) {
  ResultRow row = sampleRow();
  row.team = "a\"b\\c";
  const std::string json = toJson({row});
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

TEST(JsonReportTest, Deterministic) {
  const auto rows = std::vector<ResultRow>{sampleRow()};
  EXPECT_EQ(toJson(rows), toJson(rows));
}

TEST(JsonReportTest, WriteFile) {
  const std::string path = "/tmp/ofl_json_test.json";
  ASSERT_TRUE(writeJson({sampleRow()}, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[8] = {};
  EXPECT_EQ(std::fread(buf, 1, 2, f), 2u);
  EXPECT_EQ(buf[0], '[');
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_FALSE(writeJson({}, "/nonexistent/dir/x.json"));
}

}  // namespace
}  // namespace ofl::contest
