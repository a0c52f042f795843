#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "common/json_util.hpp"
#include "gds/gds_writer.hpp"
#include "verify/fuzzer.hpp"
#include "verify/repro.hpp"

namespace ofl::cli {
namespace {

TEST(ArgsTest, KeyValueForms) {
  const Args args = Args::parse({"fill", "--in", "a.gds", "--window=800",
                                 "--verbose", "--eta", "2.5"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "fill");
  EXPECT_EQ(args.getOr("in", ""), "a.gds");
  EXPECT_EQ(args.getIntOr("window", 0), 800);
  EXPECT_TRUE(args.hasFlag("verbose"));
  EXPECT_DOUBLE_EQ(args.getDoubleOr("eta", 0.0), 2.5);
}

TEST(ArgsTest, MissingKeysUseFallbacks) {
  const Args args = Args::parse({"stats"});
  EXPECT_FALSE(args.get("in").has_value());
  EXPECT_EQ(args.getOr("in", "x"), "x");
  EXPECT_EQ(args.getIntOr("n", 7), 7);
  EXPECT_FALSE(args.hasFlag("json"));
}

TEST(ArgsTest, MalformedNumbersRejected) {
  const Args args = Args::parse({"--n", "12abc", "--d", "1.5x"});
  EXPECT_FALSE(args.getInt("n").has_value());
  EXPECT_FALSE(args.getDouble("d").has_value());
}

TEST(ArgsTest, FlagAtEndOfLine) {
  const Args args = Args::parse({"--a", "--b"});
  EXPECT_TRUE(args.hasFlag("a"));
  EXPECT_TRUE(args.hasFlag("b"));
}

TEST(ArgsTest, UnknownKeysDetected) {
  const Args args = Args::parse({"--in", "x", "--typo", "y"});
  const auto unknown = args.unknownKeys({"in", "out"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgsTest, CheckedGettersThrowOnMalformedValues) {
  const Args args =
      Args::parse({"--window", "2k", "--eta", "fast", "--name", "ok",
                   "--empty="});
  EXPECT_THROW(args.getIntChecked("window", 0), ArgError);
  EXPECT_THROW(args.getDoubleChecked("eta", 0.0), ArgError);
  EXPECT_THROW(args.getChecked("empty", "x"), ArgError);
  EXPECT_EQ(args.getChecked("name", ""), "ok");
  // Absent keys still fall back instead of throwing.
  EXPECT_EQ(args.getIntChecked("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.getDoubleChecked("missing", 2.5), 2.5);
  try {
    args.getIntChecked("window", 0);
    FAIL() << "expected ArgError";
  } catch (const ArgError& e) {
    // The message names the option and echoes the bad value.
    EXPECT_NE(std::string(e.what()).find("--window"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("2k"), std::string::npos);
  }
}

TEST(CommandsTest, NoCommandPrintsUsage) {
  EXPECT_EQ(run(Args::parse(std::vector<std::string>{})), 2);
  EXPECT_EQ(run(Args::parse({"bogus"})), 2);
}

TEST(CommandsTest, GenerateRequiresOut) {
  EXPECT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny"})), 2);
}

TEST(CommandsTest, FillRequiresInput) {
  EXPECT_EQ(runFill(Args::parse({"fill", "--out", "/tmp/x.gds"})), 2);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", "/nonexistent.gds",
                                 "--out", "/tmp/x.gds"})),
            2);
}

TEST(CommandsTest, FullPipelineOnTinySuite) {
  const std::string wires = "/tmp/ofl_cli_wires.gds";
  const std::string filled = "/tmp/ofl_cli_filled.gds";
  EXPECT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  EXPECT_EQ(runStats(Args::parse({"stats", "--in", wires})), 0);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--window", "1200"})),
            0);
  EXPECT_EQ(runDrc(Args::parse({"drc", "--in", filled})), 0);
  EXPECT_EQ(runEvaluate(Args::parse({"evaluate", "--in", filled, "--suite",
                                     "s", "--runtime", "1.0"})),
            0);
  std::remove(wires.c_str());
  std::remove(filled.c_str());
}

TEST(CommandsTest, FillBackendSelection) {
  const std::string wires = "/tmp/ofl_cli_wires2.gds";
  const std::string filled = "/tmp/ofl_cli_filled2.gds";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--backend", "ssp"})),
            0);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--backend", "nope"})),
            2);
  std::remove(wires.c_str());
  std::remove(filled.c_str());
}

TEST(CommandsTest, CompareRunsAllFillers) {
  const std::string wires = "/tmp/ofl_cli_wires3.gds";
  const std::string json = "/tmp/ofl_cli_compare.json";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  EXPECT_EQ(runCompare(Args::parse({"compare", "--in", wires, "--suite", "s",
                                    "--json", json})),
            0);
  std::FILE* f = std::fopen(json.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(wires.c_str());
  std::remove(json.c_str());
}

TEST(CommandsTest, HeatmapCsvExport) {
  const std::string wires = "/tmp/ofl_cli_wires4.gds";
  const std::string csv = "/tmp/ofl_cli_heat.csv";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  EXPECT_EQ(runHeatmap(Args::parse({"heatmap", "--in", wires, "--csv", csv})),
            0);
  EXPECT_EQ(runHeatmap(Args::parse({"heatmap", "--in", wires, "--layer",
                                    "99"})),
            2);
  std::remove(wires.c_str());
  std::remove(csv.c_str());
}

TEST(CommandsTest, OasisFormatRoundTrip) {
  const std::string wires = "/tmp/ofl_cli_wires5.gds";
  const std::string filled = "/tmp/ofl_cli_filled5.oas";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--format", "oasis"})),
            0);
  // The OASIS output must load back (auto-detected) for stats.
  EXPECT_EQ(runStats(Args::parse({"stats", "--in", filled})), 0);
  std::remove(wires.c_str());
  std::remove(filled.c_str());
}

TEST(CommandsTest, FillRejectsUnknownOptions) {
  const std::string wires = "/tmp/ofl_cli_wires_unknown.gds";
  const std::string filled = "/tmp/ofl_cli_filled_unknown.gds";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  std::remove(filled.c_str());
  // A removed flag and a typo both fail before any work, naming the key.
  testing::internal::CaptureStderr();
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--no-warm-start"})),
            2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--no-warm-start"),
            std::string::npos);
  testing::internal::CaptureStderr();
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--bogus-flag", "3"})),
            2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--bogus-flag"),
            std::string::npos);
  testing::internal::CaptureStderr();
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--stream", "--rows-per-shard", "2"})),
            2);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--rows-per-shard"),
            std::string::npos);
  std::FILE* f = std::fopen(filled.c_str(), "r");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
  // Every documented option is still accepted.
  EXPECT_EQ(runFill(Args::parse(
                {"fill", "--in", wires, "--out", filled, "--die",
                 "0,0,9600,9600", "--window", "1200", "--lambda", "1",
                 "--gamma", "1", "--eta", "1", "--iterations", "2",
                 "--threads", "1", "--backend", "ns", "--format", "gds",
                 "--compact", "--json", "--suite", "tiny", "--min-width",
                 "10", "--min-spacing", "10", "--min-area", "100",
                 "--max-fill", "500"})),
            0);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--stream", "--mem-budget-mb", "64"})),
            0);
  std::remove(wires.c_str());
  std::remove(filled.c_str());
}

TEST(CommandsTest, MalformedOptionValuesExitWithStatus2) {
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", "x.gds", "--out", "y.gds",
                                 "--window", "2k"})),
            2);
  EXPECT_EQ(runFill(Args::parse({"fill", "--in", "x.gds", "--out", "y.gds",
                                 "--lambda", "big"})),
            2);
  EXPECT_EQ(runEvaluate(Args::parse({"evaluate", "--in", "x.gds", "--runtime",
                                     "soon"})),
            2);
  EXPECT_EQ(runHeatmap(Args::parse({"heatmap", "--in", "x.gds", "--layer",
                                    "one"})),
            2);
  EXPECT_EQ(runBatch(Args::parse({"batch", "--manifest", "m.txt", "--out-dir",
                                  "/tmp", "--jobs", "many"})),
            2);
}

TEST(CommandsTest, BatchRequiresManifestAndOutDir) {
  EXPECT_EQ(runBatch(Args::parse({"batch", "--out-dir", "/tmp"})), 2);
  EXPECT_EQ(runBatch(Args::parse({"batch", "--manifest", "m.txt"})), 2);
  EXPECT_EQ(runBatch(Args::parse({"batch", "--manifest",
                                  "/nonexistent/m.txt", "--out-dir",
                                  "/tmp"})),
            2);
}

TEST(CommandsTest, BatchRejectsBadManifestLines) {
  const std::string manifest = "/tmp/ofl_cli_bad_manifest.txt";
  {
    std::FILE* f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a.gds --window 2k\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(runBatch(Args::parse({"batch", "--manifest", manifest,
                                  "--out-dir", "/tmp"})),
            2);
  std::remove(manifest.c_str());
}

namespace {
std::string readFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}
}  // namespace

// The acceptance test from the batch-service issue: an 8-job manifest run
// with --jobs 4 must be byte-identical to sequential `openfill fill` runs,
// including the repeated lines that the result cache serves.
TEST(CommandsTest, BatchMatchesSequentialFillByteForByte) {
  const std::string dir = "/tmp/ofl_cli_batch";
  const std::string wires = dir + "/a_wires.gds";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);

  // 8 jobs over 4 distinct specs (full die / cropped die x option sets),
  // with repeats so the result cache gets exercised.
  const std::string crop = "0,0,4800,4800";
  const std::string manifest = dir + "/jobs.txt";
  {
    std::FILE* f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f,
                 "%s --out j0.gds\n"
                 "%s --out j1.gds --window 800\n"
                 "%s --out j2.gds --die %s\n"
                 "%s --out j3.gds --die %s --lambda 1.5\n"
                 "%s --out j4.gds\n"                     // repeat of j0
                 "%s --out j5.gds --window 800\n"        // repeat of j1
                 "%s --out j6.gds --die %s --lambda 1.5\n"  // repeat of j3
                 "%s --out j7.gds --die %s\n",              // repeat of j2
                 wires.c_str(), wires.c_str(), wires.c_str(), crop.c_str(),
                 wires.c_str(), crop.c_str(), wires.c_str(), wires.c_str(),
                 wires.c_str(), crop.c_str(), wires.c_str(), crop.c_str());
    std::fclose(f);
  }
  ASSERT_EQ(runBatch(Args::parse({"batch", "--manifest", manifest,
                                  "--out-dir", dir, "--jobs", "4",
                                  "--threads-per-job", "2"})),
            0);

  // Sequential reference runs (the unique specs).
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out",
                                 dir + "/seq_a.gds"})),
            0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out",
                                 dir + "/seq_a800.gds", "--window", "800"})),
            0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out",
                                 dir + "/seq_b.gds", "--die", crop})),
            0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out",
                                 dir + "/seq_b15.gds", "--die", crop,
                                 "--lambda", "1.5"})),
            0);

  const std::string seqA = readFileBytes(dir + "/seq_a.gds");
  const std::string seqA800 = readFileBytes(dir + "/seq_a800.gds");
  const std::string seqB = readFileBytes(dir + "/seq_b.gds");
  const std::string seqB15 = readFileBytes(dir + "/seq_b15.gds");
  ASSERT_FALSE(seqA.empty());
  EXPECT_EQ(readFileBytes(dir + "/j0.gds"), seqA);
  EXPECT_EQ(readFileBytes(dir + "/j1.gds"), seqA800);
  EXPECT_EQ(readFileBytes(dir + "/j2.gds"), seqB);
  EXPECT_EQ(readFileBytes(dir + "/j3.gds"), seqB15);
  EXPECT_EQ(readFileBytes(dir + "/j4.gds"), seqA);
  EXPECT_EQ(readFileBytes(dir + "/j5.gds"), seqA800);
  EXPECT_EQ(readFileBytes(dir + "/j6.gds"), seqB15);
  EXPECT_EQ(readFileBytes(dir + "/j7.gds"), seqB);

  std::filesystem::remove_all(dir);
}

TEST(CommandsTest, DrcReportsViolationsWithExitCode) {
  // Build a GDS with an illegally thin fill (datatype 1).
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Writer::addRect(lib.cells.back(), 1, {0, 0, 5, 100}, /*datatype=*/1);
  const std::string path = "/tmp/ofl_cli_bad.gds";
  ASSERT_GT(gds::Writer::writeFile(lib, path), 0);
  EXPECT_EQ(runDrc(Args::parse({"drc", "--in", path})), 1);
  std::remove(path.c_str());
}

TEST(CommandsTest, FillJsonReportsReadAndWriteSeconds) {
  const std::string wires = "/tmp/ofl_cli_json_wires.gds";
  const std::string filled = "/tmp/ofl_cli_json_filled.gds";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  testing::internal::CaptureStdout();
  const int rc = runFill(
      Args::parse({"fill", "--in", wires, "--out", filled, "--json"}));
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);
  const auto doc = json::Value::parse(out.substr(0, out.find('\n')));
  ASSERT_TRUE(doc.has_value()) << out;
  for (const char* key : {"read_seconds", "write_seconds"}) {
    const json::Value* v = doc->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_GE(v->number, 0.0) << key;
  }
  std::remove(wires.c_str());
  std::remove(filled.c_str());
}

// Inputs ingest rejects on purpose, with the same message in memory (exit
// 2, a load error) and with --stream (exit 1, a run error).
void expectFillRejects(const gds::Library& lib, const std::string& name,
                       const std::string& message) {
  const std::string in = "/tmp/ofl_cli_" + name + ".gds";
  const std::string out = "/tmp/ofl_cli_" + name + "_out.gds";
  ASSERT_GT(gds::Writer::writeFile(lib, in), 0);
  for (const bool stream : {false, true}) {
    std::vector<std::string> argv{"fill", "--in", in, "--out", out};
    if (stream) argv.push_back("--stream");
    testing::internal::CaptureStderr();
    const int rc = runFill(Args::parse(argv));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, stream ? 1 : 2) << name << " stream=" << stream;
    EXPECT_NE(err.find("fill: " + message), std::string::npos)
        << name << " stream=" << stream << ": " << err;
  }
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(CommandsTest, FillRejectsReferenceToTopCellInBothModes) {
  gds::Library lib;
  lib.cells.emplace_back();
  lib.cells.back().name = "TOP";
  gds::Writer::addRect(lib.cells.back(), 1, {0, 0, 4000, 4000});
  lib.cells.back().srefs.push_back({"TOP", {8000, 0}});
  expectFillRejects(
      lib, "selfref",
      "reference to top cell 'TOP' cannot be expanded while streaming");
}

TEST(CommandsTest, FillRejectsNonManhattanBoundaryInBothModes) {
  gds::Library lib;
  lib.cells.emplace_back();
  gds::Writer::addRect(lib.cells.back(), 1, {0, 0, 4000, 4000});
  lib.cells.emplace_back();  // the offending shape sits in a master cell
  lib.cells.back().name = "SUB";
  gds::Boundary slanted;
  slanted.layer = 2;
  slanted.vertices = {{0, 0}, {900, 0}, {1000, 700}, {0, 700}};
  lib.cells.back().boundaries.push_back(slanted);
  lib.cells.front().srefs.push_back({"SUB", {100, 100}});
  expectFillRejects(lib, "slanted",
                    "non-Manhattan BOUNDARY on layer 2: only horizontal and "
                    "vertical edges are supported");
}

TEST(CommandsTest, CheckVerifiesFilledLayout) {
  const std::string wires = "/tmp/ofl_cli_check_wires.gds";
  const std::string filled = "/tmp/ofl_cli_check_filled.gds";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--window", "1200"})),
            0);
  // All invariants hold on a real fill; --json takes the same path.
  EXPECT_EQ(runCheck(Args::parse({"check", "--in", filled, "--window", "1200",
                                  "--determinism-threads", "2"})),
            0);
  EXPECT_EQ(runCheck(Args::parse({"check", "--in", filled, "--window", "1200",
                                  "--skip-determinism", "--json"})),
            0);
  // Every injected fault class must be detected (exit 0 = net caught it).
  for (const char* fault : {"spacing", "density", "overlay", "determinism"}) {
    EXPECT_EQ(runCheck(Args::parse({"check", "--in", filled, "--window",
                                    "1200", "--determinism-threads", "2",
                                    "--inject", fault})),
              0)
        << fault;
  }
  std::remove(wires.c_str());
  std::remove(filled.c_str());
}

TEST(CommandsTest, CheckRejectsBadUsage) {
  EXPECT_EQ(runCheck(Args::parse({"check"})), 2);  // missing --in
  EXPECT_EQ(runCheck(Args::parse({"check", "--in", "/nonexistent.gds"})), 2);
  const std::string wires = "/tmp/ofl_cli_check_bad.gds";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  EXPECT_EQ(runCheck(Args::parse({"check", "--in", wires, "--inject",
                                  "bogus"})),
            2);
  std::remove(wires.c_str());
}

TEST(CommandsTest, FillWritesTraceAndMetricsArtifacts) {
  const std::string wires = "/tmp/ofl_cli_obs_wires.gds";
  const std::string filled = "/tmp/ofl_cli_obs_filled.gds";
  const std::string trace = "/tmp/ofl_cli_obs_trace.json";
  const std::string metrics = "/tmp/ofl_cli_obs_metrics.json";
  const std::string prom = "/tmp/ofl_cli_obs_metrics.prom";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", filled,
                                 "--trace", trace, "--metrics-out", metrics,
                                 "--metrics-prom", prom})),
            0);
  // The trace parses and contains engine + per-window spans.
  std::ifstream traceIn(trace);
  ASSERT_TRUE(traceIn.good());
  std::stringstream traceText;
  traceText << traceIn.rdbuf();
  const auto traceDoc = json::Value::parse(traceText.str());
  ASSERT_TRUE(traceDoc.has_value());
  const json::Value* events = traceDoc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 10u);
  bool sawEngineRun = false;
  bool sawWindow = false;
  bool sawLoad = false;
  bool sawWrite = false;
  for (const auto& e : events->array) {
    const json::Value* name = e.find("name");
    if (name == nullptr) continue;
    if (name->str == "engine.run") sawEngineRun = true;
    if (name->str == "window.sizing") sawWindow = true;
    if (name->str == "layout.load") sawLoad = true;
    if (name->str == "gds.write") sawWrite = true;
  }
  EXPECT_TRUE(sawEngineRun);
  EXPECT_TRUE(sawWindow);
  EXPECT_TRUE(sawLoad);
  EXPECT_TRUE(sawWrite);

  // The metrics snapshot pretty-prints and satisfies a --require list;
  // a missing series fails with exit 1.
  EXPECT_EQ(runStats(Args::parse(
                {"stats", "--metrics", metrics, "--require",
                 "engine.runs,prof.sizing.seconds,score.total,"
                 "quality.windows,process.peak_rss_mib,engine.run_seconds,"
                 // pre-registered schema: present (zero) even on a lone
                 // fill that never touches the cache or scheduler
                 "cache.hits,sched.tasks_submitted"})),
            0);
  EXPECT_EQ(runStats(Args::parse({"stats", "--metrics", metrics, "--require",
                                  "not.a.series"})),
            1);
  EXPECT_EQ(runStats(Args::parse({"stats", "--metrics",
                                  "/nonexistent/metrics.json"})),
            2);

  // Prometheus exposition exists and uses the openfill_ prefix.
  std::ifstream promIn(prom);
  ASSERT_TRUE(promIn.good());
  std::stringstream promText;
  promText << promIn.rdbuf();
  EXPECT_NE(promText.str().find("openfill_engine_runs_total"),
            std::string::npos);

  std::remove(wires.c_str());
  std::remove(filled.c_str());
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  std::remove(prom.c_str());
}

TEST(CommandsTest, FillOutputIdenticalWithAndWithoutTracing) {
  // Observability must never change the product: byte-compare the GDS
  // written with collection on vs off.
  const std::string wires = "/tmp/ofl_cli_obs_det_wires.gds";
  const std::string plain = "/tmp/ofl_cli_obs_det_plain.gds";
  const std::string traced = "/tmp/ofl_cli_obs_det_traced.gds";
  const std::string trace = "/tmp/ofl_cli_obs_det_trace.json";
  const std::string metrics = "/tmp/ofl_cli_obs_det_metrics.json";
  ASSERT_EQ(runGenerate(Args::parse({"generate", "--suite", "tiny", "--out",
                                     wires})),
            0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", plain})), 0);
  ASSERT_EQ(runFill(Args::parse({"fill", "--in", wires, "--out", traced,
                                 "--trace", trace, "--metrics-out", metrics})),
            0);
  std::ifstream a(plain, std::ios::binary);
  std::ifstream b(traced, std::ios::binary);
  std::stringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  ASSERT_FALSE(abuf.str().empty());
  EXPECT_EQ(abuf.str(), bbuf.str());
  std::remove(wires.c_str());
  std::remove(plain.c_str());
  std::remove(traced.c_str());
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST(CommandsTest, FuzzSweepAndReplay) {
  const std::string corpus = "/tmp/ofl_cli_fuzz_corpus";
  EXPECT_EQ(runFuzz(Args::parse({"fuzz", "--seeds", "4", "--skip-determinism",
                                 "--corpus", corpus})),
            0);

  const std::string repro = "/tmp/ofl_cli_fuzz_case.repro";
  ASSERT_TRUE(
      verify::writeReproFile(repro, verify::LayoutFuzzer::generate(2)));
  EXPECT_EQ(runFuzz(Args::parse({"fuzz", "--replay", repro,
                                 "--skip-determinism"})),
            0);
  EXPECT_EQ(runFuzz(Args::parse({"fuzz", "--replay", "/nonexistent.repro"})),
            2);
  std::remove(repro.c_str());
  std::filesystem::remove_all(corpus);
}

}  // namespace
}  // namespace ofl::cli
