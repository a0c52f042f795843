// Spliced cache hits: a repeated file job is answered from the hash of its
// raw bytes, writing the input's own wire records with the cached fills.
// The bytes must equal parsing the input and writing the filled layout,
// and every input or request the splice cannot serve must get today's
// bytes with `spliced` false.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "contest/benchmark_generator.hpp"
#include "fill/fill_engine.hpp"
#include "gds/gds_writer.hpp"
#include "gds/oasis.hpp"
#include "service/fill_service.hpp"
#include "service/layout_io.hpp"
#include "service/manifest.hpp"
#include "service/splice.hpp"

namespace ofl::service {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

fill::FillEngineOptions fastOptions() {
  fill::FillEngineOptions opt = defaultEngineOptions();
  opt.windowSize = 1000;
  return opt;
}

// A small two-layer layout whose fill takes milliseconds.
layout::Layout smallLayout(geom::Coord shift = 0) {
  layout::Layout chip(geom::Rect{0, 0, 4000, 4000}, 2);
  chip.layer(0).wires = {{200 + shift, 200, 1800 + shift, 500},
                         {2200, 2600, 3800, 2900},
                         {600, 1400, 900, 3400}};
  chip.layer(1).wires = {{1000, 1000, 1400, 3000}, {2000, 400, 2300, 3600}};
  return chip;
}

class SpliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ofl_splice_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string writeGds(const gds::Library& lib, const std::string& name) const {
    const std::string p = path(name);
    EXPECT_GT(gds::Writer::writeFile(lib, p), 0);
    return p;
  }

  JobSpec fileSpec(const std::string& input, const std::string& out,
                   const fill::FillEngineOptions& opt) const {
    JobSpec spec;
    spec.inputPath = input;
    spec.outputPath = path(out);
    spec.engine = opt;
    return spec;
  }

  // Today's bytes for `spec`: the input parsed, filled (or ECO-repaired)
  // and written in the spec's format.
  std::vector<std::uint8_t> todaysBytes(const JobSpec& spec) const {
    layout::Layout chip;
    if (spec.layout != nullptr) {
      chip = *spec.layout;
    } else {
      std::string error;
      EXPECT_TRUE(loadFlatLayout(spec.inputPath, spec.die, &chip, &error))
          << error;
    }
    const fill::FillEngine engine(spec.engine);
    if (spec.kind == JobKind::kEco) {
      engine.runIncremental(chip, spec.ecoChanged);
    } else {
      engine.run(chip);
    }
    const std::string out = path("expected.out");
    EXPECT_GT(writeLayout(chip, out, spec.format, spec.compact), 0);
    return readBytes(out);
  }

  // Submits `specs` in order on one worker and returns their results.
  static std::vector<JobResult> serve(FillService& service,
                                      const std::vector<JobSpec>& specs) {
    for (const JobSpec& s : specs) service.submit(s);
    std::vector<JobResult> results = service.waitAll();
    for (const JobResult& r : results) {
      EXPECT_EQ(r.status, JobStatus::kSucceeded) << r.error;
    }
    return results;
  }

  static ServiceOptions oneWorker() {
    ServiceOptions so;
    so.maxConcurrentJobs = 1;  // each probe sees the previous insert
    so.threadsPerJob = 1;
    return so;
  }

  std::string dir_;
};

TEST_F(SpliceTest, SplicedHitMatchesParseAndWriteGdsForSuitesSAndB) {
  for (const char* suite : {"s", "b"}) {
    SCOPED_TRACE(suite);
    const layout::Layout chip = contest::BenchmarkGenerator::generate(
        contest::BenchmarkGenerator::spec(suite));
    const std::string input = writeGds(chip.toGds(), "in.gds");
    const JobSpec first = fileSpec(input, "out0.gds", defaultEngineOptions());
    const JobSpec second = fileSpec(input, "out1.gds", defaultEngineOptions());
    FillService service(oneWorker());
    const std::vector<JobResult> r = serve(service, {first, second});
    EXPECT_FALSE(r[0].cacheHit);
    EXPECT_FALSE(r[0].spliced);
    EXPECT_TRUE(r[1].cacheHit);
    EXPECT_TRUE(r[1].spliced);
    EXPECT_EQ(r[0].cacheKey, r[1].cacheKey);
    EXPECT_EQ(r[0].fillCount, r[1].fillCount);
    const std::vector<std::uint8_t> expected = todaysBytes(first);
    EXPECT_EQ(readBytes(first.outputPath), expected);
    EXPECT_EQ(readBytes(second.outputPath), expected);
    EXPECT_EQ(r[1].outputBytes, static_cast<long long>(expected.size()));
    EXPECT_EQ(service.stats().splicedHits, 1u);
  }
}

// An ECO input carries the previous fills between its layers' wires; a
// repeated ECO request splices around them.
TEST_F(SpliceTest, SplicedEcoHitMatchesParseAndWriteGds) {
  layout::Layout chip = contest::BenchmarkGenerator::generate(
      contest::BenchmarkGenerator::spec("s"));
  fill::FillEngine(defaultEngineOptions()).run(chip);
  const geom::Coord cx = (chip.die().xl + chip.die().xh) / 2;
  const geom::Coord cy = (chip.die().yl + chip.die().yh) / 2;
  const geom::Rect edit{cx - 2000, cy - 2000, cx + 2000, cy + 2000};
  auto& wires = chip.layer(0).wires;
  std::erase_if(wires, [&](const geom::Rect& r) {
    return r.xl >= edit.xl && r.yl >= edit.yl && r.xh <= edit.xh &&
           r.yh <= edit.yh;
  });
  const std::string input = writeGds(chip.toGds(), "eco.gds");
  std::vector<JobSpec> specs;
  for (const char* out : {"eco0.gds", "eco1.gds"}) {
    JobSpec spec = fileSpec(input, out, defaultEngineOptions());
    spec.kind = JobKind::kEco;
    spec.ecoChanged = edit;
    specs.push_back(spec);
  }
  FillService service(oneWorker());
  const std::vector<JobResult> r = serve(service, specs);
  EXPECT_FALSE(r[0].spliced);
  EXPECT_TRUE(r[1].spliced);
  const std::vector<std::uint8_t> expected = todaysBytes(specs[0]);
  EXPECT_EQ(readBytes(specs[0].outputPath), expected);
  EXPECT_EQ(readBytes(specs[1].outputPath), expected);
}

TEST_F(SpliceTest, InputsWithoutVerbatimWireRunsGetTodaysBytesUnspliced) {
  const layout::Layout chip = smallLayout();
  auto rects = [&chip](gds::Cell& cell, auto&& boundary) {
    for (int l = 0; l < chip.numLayers(); ++l) {
      for (const geom::Rect& r : chip.layer(l).wires) {
        cell.boundaries.push_back(
            boundary(static_cast<std::int16_t>(l + 1), r));
      }
    }
  };
  std::map<std::string, std::string> inputs;
  inputs["oasis"] = path("in.oas");
  gds::OasisWriter::writeFile(chip.toGds(), inputs["oasis"]);
  {
    gds::Library lib = chip.toGds();
    gds::Cell master;
    master.name = "M";
    gds::Writer::addRect(master, 2, {0, 0, 100, 300});
    lib.cells.front().srefs.push_back({"M", {3000, 300}});
    lib.cells.front().arefs.push_back({"M", {2600, 3200}, 2, 2, 300, 400});
    lib.cells.push_back(master);
    inputs["hierarchy"] = writeGds(lib, "hier.gds");
  }
  {
    gds::Library lib;
    lib.cells.emplace_back();
    rects(lib.cells.front(), [](std::int16_t layer, const geom::Rect& r) {
      return gds::Boundary{
          layer, 0, {{r.xh, r.yh}, {r.xl, r.yh}, {r.xl, r.yl}, {r.xh, r.yl}}};
    });
    inputs["vertex_order"] = writeGds(lib, "order.gds");
  }
  {
    gds::Library lib = chip.toGds();
    lib.cells.front().boundaries.insert(
        lib.cells.front().boundaries.begin() + 1,
        gds::Boundary{1,
                      0,
                      {{2600, 600},
                       {3400, 600},
                       {3400, 900},
                       {2900, 900},
                       {2900, 1600},
                       {2600, 1600}}});
    inputs["polygon"] = writeGds(lib, "polygon.gds");
  }
  {
    gds::Library lib;
    lib.cells.emplace_back();
    rects(lib.cells.front(), [](std::int16_t layer, const geom::Rect& r) {
      gds::Cell c;
      gds::Writer::addRect(c, layer, r, /*datatype=*/2);
      return c.boundaries.front();
    });
    inputs["datatype"] = writeGds(lib, "datatype.gds");
  }
  {
    gds::Library lib = chip.toGds();
    gds::Cell c;
    gds::Writer::addRect(c, 1, {1500, 1500, 1500, 2500});  // zero width
    lib.cells.front().boundaries.insert(
        lib.cells.front().boundaries.begin() + 1, c.boundaries.front());
    inputs["empty_rect"] = writeGds(lib, "empty.gds");
  }

  for (const auto& [kind, input] : inputs) {
    SCOPED_TRACE(kind);
    const JobSpec first = fileSpec(input, kind + "0.gds", fastOptions());
    const JobSpec second = fileSpec(input, kind + "1.gds", fastOptions());
    FillService service(oneWorker());
    const std::vector<JobResult> r = serve(service, {first, second});
    EXPECT_FALSE(r[0].spliced);
    EXPECT_TRUE(r[1].cacheHit);
    EXPECT_FALSE(r[1].spliced);
    const std::vector<std::uint8_t> expected = todaysBytes(first);
    EXPECT_EQ(readBytes(first.outputPath), expected);
    EXPECT_EQ(readBytes(second.outputPath), expected);
    EXPECT_EQ(service.stats().cache.aliases, 0u);
  }
}

TEST_F(SpliceTest, RequestsThatNeedTheLayoutGetTodaysBytesUnspliced) {
  const layout::Layout chip = smallLayout();
  const std::string input = writeGds(chip.toGds(), "in.gds");
  std::vector<JobSpec> specs;
  specs.push_back(fileSpec(input, "plain.gds", fastOptions()));  // learns
  specs.push_back(fileSpec(input, "compact.gds", fastOptions()));
  specs.back().compact = true;
  specs.push_back(fileSpec(input, "oasis.oas", fastOptions()));
  specs.back().format = OutputFormat::kOasis;
  specs.push_back(fileSpec(input, "keep.gds", fastOptions()));
  specs.back().keepLayout = true;
  layout::Layout loaded;
  std::string error;
  ASSERT_TRUE(loadFlatLayout(input, std::nullopt, &loaded, &error)) << error;
  specs.push_back(fileSpec("", "inmem.gds", fastOptions()));
  specs.back().layout = std::make_shared<const layout::Layout>(loaded);

  FillService service(oneWorker());
  const std::vector<JobResult> r = serve(service, specs);
  EXPECT_EQ(service.stats().cache.aliases, 1u);
  for (std::size_t i = 1; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].outputPath);
    EXPECT_TRUE(r[i].cacheHit);
    EXPECT_FALSE(r[i].spliced);
    EXPECT_EQ(readBytes(specs[i].outputPath), todaysBytes(specs[i]));
  }
  EXPECT_NE(r[3].layout, nullptr);
}

// The raw key covers everything besides the bytes that shapes a result:
// options, the die option, the job kind and the ECO rect. A request that
// differs in any of them is not served from another's alias.
TEST_F(SpliceTest, RawKeyCoversOptionsDieKindAndEcoRect) {
  layout::Layout chip = smallLayout();
  fill::FillEngine(fastOptions()).run(chip);  // an input with fills
  const std::string input = writeGds(chip.toGds(), "in.gds");
  std::vector<JobSpec> specs;
  specs.push_back(fileSpec(input, "plain.gds", fastOptions()));
  specs.push_back(fileSpec(input, "options.gds", fastOptions()));
  specs.back().engine.windowSize = 800;
  specs.push_back(fileSpec(input, "die.gds", fastOptions()));
  specs.back().die = geom::Rect{0, 0, 5000, 5000};
  for (const geom::Coord margin : {0, 100}) {
    specs.push_back(fileSpec(input, "eco" + std::to_string(margin) + ".gds",
                             fastOptions()));
    specs.back().kind = JobKind::kEco;
    specs.back().ecoChanged =
        geom::Rect{1000, 1000, 1500, 1500}.expanded(margin);
  }
  std::vector<JobSpec> all = specs;
  for (const JobSpec& spec : specs) {  // each again, now spliced
    all.push_back(spec);
    all.back().outputPath += ".again";
  }
  FillService service(oneWorker());
  const std::vector<JobResult> r = serve(service, all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(all[i].outputPath);
    EXPECT_EQ(r[i].spliced, i >= specs.size());
    EXPECT_EQ(readBytes(all[i].outputPath), todaysBytes(all[i]));
  }
}

TEST_F(SpliceTest, InputEditedInPlaceIsAMiss) {
  const std::string input = writeGds(smallLayout().toGds(), "in.gds");
  FillService service(oneWorker());
  const JobSpec spec = fileSpec(input, "a.gds", fastOptions());
  std::vector<JobResult> r = serve(service, {spec, spec});
  EXPECT_TRUE(r[1].spliced);

  // Same path, same length, one coordinate moved.
  writeGds(smallLayout(/*shift=*/40).toGds(), "in.gds");
  const std::uint64_t id = service.submit(spec);
  const JobResult edited = service.wait(id);
  ASSERT_EQ(edited.status, JobStatus::kSucceeded) << edited.error;
  EXPECT_FALSE(edited.cacheHit);
  EXPECT_FALSE(edited.spliced);
  EXPECT_EQ(readBytes(spec.outputPath), todaysBytes(spec));
}

TEST_F(SpliceTest, EvictingAnEntryDropsItsAlias) {
  const layout::Layout a = smallLayout();
  const layout::Layout b = smallLayout(/*shift=*/40);
  const std::string inA = writeGds(a.toGds(), "a.gds");
  const std::string inB = writeGds(b.toGds(), "b.gds");
  // A budget that holds either entry with its alias, never both entries.
  std::size_t largest = 0;
  for (const layout::Layout* chip : {&a, &b}) {
    layout::Layout filled = *chip;
    const fill::FillReport report = fill::FillEngine(fastOptions()).run(filled);
    largest = std::max(largest, CachedFill::capture(filled, report)->bytes);
  }
  ServiceOptions so = oneWorker();
  so.cacheBytes = largest + 2 * WireSplice{0, {{}, {}}}.footprint();
  FillService service(so);

  const JobSpec specA = fileSpec(inA, "a_out.gds", fastOptions());
  const JobSpec specB = fileSpec(inB, "b_out.gds", fastOptions());
  const std::vector<JobResult> r =
      serve(service, {specA, specA, specB, specA});
  EXPECT_TRUE(r[1].spliced);
  EXPECT_FALSE(r[2].cacheHit);
  EXPECT_FALSE(r[3].cacheHit);  // A's entry went, and its alias with it
  EXPECT_FALSE(r[3].spliced);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache.evictions, 2u);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.cache.aliases, 1u);
  EXPECT_LE(stats.cache.bytesUsed, so.cacheBytes);
}

// A persistent store that counts its loads and keeps entries in memory.
class MapStore : public ResultStore {
 public:
  std::shared_ptr<const CachedFill> load(std::uint64_t key) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++loads;
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }
  void store(std::uint64_t key, const CachedFill& entry) override {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = CachedFill::fromFills(entry.fillsPerLayer(), entry.report);
  }
  int loads = 0;

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const CachedFill>> entries_;
};

TEST_F(SpliceTest, OneCountedProbePerRequestAndRawMissesSkipTheStore) {
  const std::string inA = writeGds(smallLayout().toGds(), "a.gds");
  const std::string inB = writeGds(smallLayout(40).toGds(), "b.gds");
  MapStore store;
  ServiceOptions so = oneWorker();
  so.resultStore = &store;
  FillService service(so);
  const JobSpec a = fileSpec(inA, "a_out.gds", fastOptions());
  const JobSpec b = fileSpec(inB, "b_out.gds", fastOptions());
  JobSpec compact = a;
  compact.compact = true;
  serve(service, {a, a, a, b, b, compact});

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.completed);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.splicedHits, 3u);
  EXPECT_EQ(stats.jobCacheHits, 4u);
  EXPECT_EQ(store.loads, 2);  // the two layout-key misses only
}

// Aliases are memory-only: after a restart the first repeat parses, hits
// the persistent store by layout key and learns its alias again.
TEST_F(SpliceTest, AliasIsRelearnedAfterRestart) {
  const std::string input = writeGds(smallLayout().toGds(), "in.gds");
  MapStore store;
  ServiceOptions so = oneWorker();
  so.resultStore = &store;
  const JobSpec spec = fileSpec(input, "out.gds", fastOptions());
  std::vector<std::uint8_t> first;
  {
    FillService service(so);
    serve(service, {spec});
    first = readBytes(spec.outputPath);
  }
  FillService restarted(so);
  const std::vector<JobResult> r = serve(restarted, {spec, spec});
  EXPECT_TRUE(r[0].cacheHit);
  EXPECT_FALSE(r[0].spliced);
  EXPECT_EQ(restarted.stats().cache.persistentHits, 1u);
  EXPECT_TRUE(r[1].spliced);
  EXPECT_EQ(readBytes(spec.outputPath), first);
}

// Concurrent repeats race aliases against inserts and probes; every
// output still equals today's bytes (run under TSan by tsan_smoke_service).
TEST_F(SpliceTest, ConcurrentRepeatsMatchTodaysBytes) {
  const std::string inA = writeGds(smallLayout().toGds(), "a.gds");
  const std::string inB = writeGds(smallLayout(40).toGds(), "b.gds");
  ServiceOptions so;
  so.maxConcurrentJobs = 4;
  so.threadsPerJob = 1;
  FillService service(so);
  std::vector<JobSpec> specs;
  for (int i = 0; i < 16; ++i) {
    specs.push_back(fileSpec(i % 2 == 0 ? inA : inB,
                             "out" + std::to_string(i) + ".gds",
                             fastOptions()));
  }
  const std::vector<JobResult> r = serve(service, specs);
  const std::vector<std::uint8_t> expectedA = todaysBytes(specs[0]);
  const std::vector<std::uint8_t> expectedB = todaysBytes(specs[1]);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& expected = i % 2 == 0 ? expectedA : expectedB;
    EXPECT_EQ(readBytes(specs[i].outputPath), expected) << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.completed);
  EXPECT_EQ(stats.cache.aliases, 2u);
}

TEST_F(SpliceTest, ValidationRejectsOtherLengthsRunsOutsideAndBadFraming) {
  const layout::Layout chip = smallLayout();
  const std::vector<std::uint8_t> bytes = gds::Writer::serialize(chip.toGds());
  const auto splice = findWireSpans(bytes, chip);
  ASSERT_TRUE(splice.has_value());
  ASSERT_EQ(splice->layers.size(), 2u);
  EXPECT_EQ(splice->layers[0].count, 3u);
  EXPECT_EQ(splice->layers[1].count, 2u);
  EXPECT_TRUE(validSplice(bytes, *splice));

  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(validSplice(longer, *splice));
  WireSplice outside = *splice;
  outside.layers[1].offset = bytes.size() - 64;
  EXPECT_FALSE(validSplice(bytes, outside));
  outside.layers[1].offset = bytes.size() + 64;
  EXPECT_FALSE(validSplice(bytes, outside));
  // A coordinate may change; a record header may not.
  std::vector<std::uint8_t> moved = bytes;
  moved[splice->layers[0].offset + 24] ^= 1;
  EXPECT_TRUE(validSplice(moved, *splice));
  std::vector<std::uint8_t> reframed = bytes;
  reframed[splice->layers[1].offset + 64 + 3] ^= 1;  // BOUNDARY's tag
  EXPECT_FALSE(validSplice(reframed, *splice));
}

}  // namespace
}  // namespace ofl::service
