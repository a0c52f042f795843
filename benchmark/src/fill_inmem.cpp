// fill_inmem: distinct suite-m layouts, each loaded from GDS, filled in
// process by FillEngine::run at nproc threads and written back as GDS, one
// layout at a time (the paper's Fig. 3 flow as a designer runs it).
#include <optional>
#include <random>

#include "common/thread_pool.hpp"
#include "fill/fill_engine.hpp"
#include "gds/gds_writer.hpp"
#include "service/layout_io.hpp"
#include "workloads.hpp"

namespace ofb {

namespace {

// Layouts generated per set-up repetition (and per top-up when a fast
// machine runs through the pool). setup_s is the median repetition; the
// repetitions together cover about the layouts one run fills.
constexpr std::size_t kBatch = 4;
constexpr int kSetupBatches = 5;
// Outputs re-filled at 1 thread for the byte-identity check.
constexpr std::size_t kIdentitySamples = 2;

struct Input {
  std::string path;
  std::string output;
};

}  // namespace

Result runFillInmem(const RunArgs& a) {
  Result r;
  EndToEnd e;
  std::vector<Input> pool;
  auto addBatch = [&] {
    const std::size_t first = pool.size();
    pool.resize(first + kBatch);
    ofl::parallelFor(nproc(), kBatch, [&](std::size_t b) {
      const std::size_t k = first + b;
      pool[k].path = joinPath(a.workDir, "in_" + std::to_string(k) + ".gds");
      pool[k].output = joinPath(a.workDir, "out_" + std::to_string(k) + ".gds");
      writeSuiteLayout("m", deriveSeed(a.seed, 1, k), pool[k].path);
    });
  };
  for (int rep = 0; rep < kSetupBatches; ++rep) {
    Stopwatch setup;
    addBatch();
    e.setupSeconds.push_back(setup.seconds());
  }

  // Timed phase: only the load -> fill -> write of each layout counts.
  const ofl::fill::FillEngine engine(engineOptions(nproc()));
  std::vector<char> failed;
  resetPeakRss();
  for (std::size_t k = 0; e.wallSeconds < a.seconds; ++k) {
    if (k == pool.size()) addBatch();
    flushDirtyPages();
    const double cpu0 = cpuSeconds();
    Stopwatch op;
    ofl::layout::Layout chip;
    std::string error;
    bool ok = ofl::service::loadFlatLayout(pool[k].path, std::nullopt, &chip,
                                           &error);
    long long bytes = -1;
    if (ok) {
      engine.run(chip);
      bytes = ofl::gds::Writer::writeFile(chip.toGds(), pool[k].output);
      ok = bytes > 0;
    }
    const double wall = op.seconds();
    e.cpuSeconds += cpuSeconds() - cpu0;
    e.wallSeconds += wall;
    e.fillSeconds.push_back(wall);
    e.latencyMs.push_back(wall * 1e3);
    e.wires += static_cast<double>(chip.wireCount());
    e.fillWires.push_back(static_cast<double>(chip.wireCount()));
    e.outputMB.push_back(static_cast<double>(bytes) / 1e6);
    failed.push_back(ok ? 0 : 1);
    if (!ok) r.fail("layout " + pool[k].path + ": " + error);
  }
  e.peakRssMiB = peakRssMiB();
  const std::size_t ops = failed.size();
  e.operations = static_cast<double>(ops);

  // Checks, untimed: zero DRC violations and Testcase Quality of every
  // output; byte identity with a 1-thread fill on a seeded sample.
  std::vector<QualityCheck> quality(ops);
  ofl::parallelFor(nproc(), ops, [&](std::size_t k) {
    if (failed[k] != 0 || !evaluateFile(pool[k].output, "m", &quality[k])) {
      quality[k].drcViolations = 1;
    }
  });
  for (std::size_t k = 0; k < ops; ++k) {
    if (failed[k] != 0) continue;
    e.quality.push_back(quality[k].quality);
    if (quality[k].drcViolations > 0) {
      r.fail(pool[k].output + ": DRC violations");
      failed[k] = 1;
    }
  }
  std::mt19937_64 rng(deriveSeed(a.seed, 2, 0));
  std::vector<std::size_t> sample{0};
  while (sample.size() < std::min(kIdentitySamples, ops)) {
    sample.push_back(1 + rng() % (ops - 1));
  }
  std::vector<char> same(sample.size(), 0);
  ofl::parallelFor(nproc(), sample.size(), [&](std::size_t s) {
    ofl::layout::Layout chip;
    std::string error;
    if (!ofl::service::loadFlatLayout(pool[sample[s]].path, std::nullopt,
                                      &chip, &error)) {
      return;
    }
    ofl::fill::FillEngine(engineOptions(1)).run(chip);
    same[s] = gdsBytes(chip) == readFile(pool[sample[s]].output);
  });
  for (std::size_t s = 0; s < sample.size(); ++s) {
    if (same[s] != 0) continue;
    r.fail(pool[sample[s]].output + " differs from a 1-thread fill");
    failed[sample[s]] = 1;
  }

  r.attempted = static_cast<long long>(ops);
  for (const char f : failed) r.failed += f;
  emitEndToEnd(e, r);
  return r;
}

}  // namespace ofb
