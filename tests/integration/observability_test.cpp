// Batch observability integration: a FillService run under tracing +
// metrics produces a parseable Chrome trace whose span count covers every
// job and engine stage (correlated by job id), a metrics snapshot carrying
// the engine/cache/scheduler/RSS series, and — the PR-1 contract extended
// to observability — fills that are byte-identical with collection on or
// off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json_util.hpp"
#include "fill/fill_engine.hpp"
#include "gds/gds_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fill_service.hpp"
#include "service/manifest.hpp"

namespace ofl {
namespace {

std::shared_ptr<const layout::Layout> makeInput(geom::Coord shift) {
  auto chip =
      std::make_shared<layout::Layout>(geom::Rect{0, 0, 4000, 4000}, 2);
  chip->layer(0).wires.push_back({200 + shift, 200, 1800 + shift, 500});
  chip->layer(0).wires.push_back({2200, 2600, 3800, 2900});
  chip->layer(0).wires.push_back({600, 1400, 900, 3400});
  chip->layer(1).wires.push_back({1000, 1000, 1400, 3000});
  chip->layer(1).wires.push_back({2000, 400, 2300, 3600});
  return chip;
}

fill::FillEngineOptions fastOptions() {
  fill::FillEngineOptions opt = service::defaultEngineOptions();
  opt.windowSize = 1000;
  return opt;
}

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setEnabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().setEnabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().setEnabled(false);
    obs::Tracer::instance().clear();
    obs::MetricsRegistry::instance().setEnabled(false);
    obs::MetricsRegistry::instance().reset();
  }
};

TEST_F(ObservabilityIntegrationTest, BatchProducesTraceAndMetrics) {
  constexpr int kJobs = 3;
  std::vector<std::vector<std::vector<geom::Rect>>> fills(kJobs);
  {
    service::ServiceOptions so;
    so.maxConcurrentJobs = 2;
    so.threadsPerJob = 1;
    service::FillService svc(so);
    for (int i = 0; i < kJobs; ++i) {
      service::JobSpec spec;
      spec.layout = makeInput(/*shift=*/i * 40);
      spec.engine = fastOptions();
      spec.keepLayout = true;
      svc.submit(std::move(spec));
    }
    const std::vector<service::JobResult> results = svc.waitAll();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_EQ(results[i].status, service::JobStatus::kSucceeded)
          << results[i].error;
      for (int l = 0; l < results[i].layout->numLayers(); ++l) {
        fills[static_cast<std::size_t>(i)].push_back(
            results[i].layout->layer(l).fills);
      }
    }
    service::exportToMetrics(svc.stats());
  }  // service destroyed: every worker joined, all probes flushed

  // --- Trace: every engine stage spans every job, correlated by job id.
  const auto events = obs::Tracer::instance().collect();
  const char* kPerJobSpans[] = {"engine.run",      "engine.planning",
                                "engine.candidates", "engine.sizing",
                                "engine.output",   "job.run",
                                "job.queue_wait",  "sched.execute",
                                "sched.queue_wait"};
  std::map<std::string, std::size_t> counts;
  std::set<int> jobIdsOnEngineRuns;
  for (const auto& ce : events) {
    counts[ce.event.name] += 1;
    if (std::string(ce.event.name) == "engine.run") {
      for (int a = 0; a < ce.event.argCount; ++a) {
        if (std::string(ce.event.argKeys[a]) == "job") {
          jobIdsOnEngineRuns.insert(static_cast<int>(ce.event.argValues[a]));
        }
      }
    }
  }
  for (const char* name : kPerJobSpans) {
    EXPECT_GE(counts[name], static_cast<std::size_t>(kJobs)) << name;
  }
  // Span count >= jobs x engine stages, with per-window spans on top.
  EXPECT_GE(events.size(),
            static_cast<std::size_t>(kJobs) * std::size(kPerJobSpans));
  EXPECT_GE(counts["window.candidates"], static_cast<std::size_t>(kJobs));
  EXPECT_GE(counts["window.sizing"], static_cast<std::size_t>(kJobs));
  EXPECT_EQ(jobIdsOnEngineRuns, (std::set<int>{0, 1, 2}));

  // The emitted artifact parses as Chrome trace JSON.
  const auto doc = json::Value::parse(obs::Tracer::instance().chromeJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("traceEvents")->array.size(), events.size());

  // --- Metrics: engine, cache, scheduler, service and RSS series exist.
  obs::updateProcessGauges();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  for (const char* name :
       {"engine.runs", "engine.windows", "engine.sizer_closed_form_solves",
        "cache.misses",
        "sched.tasks_submitted", "sched.tasks_completed",
        "service.jobs_completed", "job.run_seconds", "job.queue_seconds",
        "sched.queue_wait_seconds", "quality.windows",
        "service.succeeded", "process.peak_rss_mib"}) {
    EXPECT_TRUE(snap.has(name)) << name;
  }
  EXPECT_EQ(snap.counters.at("engine.runs"), static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(snap.counters.at("engine.sizer_closed_form_solves"), 0u);
  EXPECT_EQ(snap.counters.at("service.jobs_completed"),
            static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(snap.histograms.at("job.run_seconds").data.count,
            static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(snap.gauges.at("process.peak_rss_mib"), 0.0);

  // --- Determinism: rerun with collection OFF; fills byte-identical.
  obs::Tracer::instance().setEnabled(false);
  obs::MetricsRegistry::instance().setEnabled(false);
  for (int i = 0; i < kJobs; ++i) {
    layout::Layout quiet = *makeInput(/*shift=*/i * 40);
    fill::FillEngineOptions opt = fastOptions();
    opt.numThreads = 1;
    fill::FillEngine(opt).run(quiet);
    for (int l = 0; l < quiet.numLayers(); ++l) {
      EXPECT_EQ(quiet.layer(l).fills,
                fills[static_cast<std::size_t>(i)][static_cast<std::size_t>(l)])
          << "job " << i << " layer " << l;
    }
  }
}

TEST_F(ObservabilityIntegrationTest, TracingDoesNotPerturbSingleRun) {
  // Same layout, tracing on vs off, single engine run: identical fills.
  layout::Layout traced = *makeInput(0);
  fill::FillEngineOptions opt = fastOptions();
  opt.numThreads = 2;
  fill::FillEngine(opt).run(traced);

  obs::Tracer::instance().setEnabled(false);
  obs::MetricsRegistry::instance().setEnabled(false);
  layout::Layout plain = *makeInput(0);
  fill::FillEngine(opt).run(plain);

  for (int l = 0; l < traced.numLayers(); ++l) {
    EXPECT_EQ(traced.layer(l).fills, plain.layer(l).fills) << "layer " << l;
  }
}

TEST_F(ObservabilityIntegrationTest, JobIdFlowsIntoWindowSpans) {
  // FillEngineOptions::jobId tags per-window spans so cross-thread work is
  // attributable to its job in Perfetto.
  layout::Layout chip = *makeInput(0);
  fill::FillEngineOptions opt = fastOptions();
  opt.numThreads = 1;
  opt.jobId = 42;
  fill::FillEngine(opt).run(chip);

  bool sawWindowSpanWithJob = false;
  for (const auto& ce : obs::Tracer::instance().collect()) {
    if (std::string(ce.event.name) != "window.candidates") continue;
    for (int a = 0; a < ce.event.argCount; ++a) {
      if (std::string(ce.event.argKeys[a]) == "job" &&
          ce.event.argValues[a] == 42.0) {
        sawWindowSpanWithJob = true;
      }
    }
  }
  EXPECT_TRUE(sawWindowSpanWithJob);
}

TEST_F(ObservabilityIntegrationTest, StreamedJobEmitsTheSameStageSpans) {
  // One Fig. 3 flow: a --stream job runs the same stage steps as an
  // in-memory job, so a trace shows the same per-job stage spans for both.
  const std::string inputPath = "/tmp/ofl_obs_stream_in.gds";
  ASSERT_GT(gds::Writer::writeFile(makeInput(0)->toGds(), inputPath), 0);
  const std::string outPaths[] = {"/tmp/ofl_obs_stream_mem.gds",
                                  "/tmp/ofl_obs_stream_streamed.gds"};
  {
    service::ServiceOptions so;
    so.maxConcurrentJobs = 1;
    so.threadsPerJob = 2;
    service::FillService svc(so);
    for (const bool stream : {false, true}) {
      service::JobSpec spec;
      spec.inputPath = inputPath;
      spec.outputPath = outPaths[stream ? 1 : 0];
      spec.engine = fastOptions();
      spec.stream = stream;
      svc.submit(std::move(spec));
    }
    for (const service::JobResult& r : svc.waitAll()) {
      ASSERT_EQ(r.status, service::JobStatus::kSucceeded) << r.error;
    }
  }

  std::map<int, std::set<std::string>> spansByJob;
  for (const auto& ce : obs::Tracer::instance().collect()) {
    for (int a = 0; a < ce.event.argCount; ++a) {
      if (std::string(ce.event.argKeys[a]) == "job") {
        spansByJob[static_cast<int>(ce.event.argValues[a])].insert(
            ce.event.name);
      }
    }
  }
  for (const int job : {0, 1}) {
    for (const char* name : {"engine.planning", "engine.candidates",
                             "engine.replanning", "engine.sizing",
                             "engine.output", "window.candidates",
                             "window.sizing"}) {
      EXPECT_EQ(spansByJob[job].count(name), 1u)
          << name << " missing from " << (job == 0 ? "in-memory" : "streamed")
          << " job";
    }
  }

  // Same flow, same bytes.
  const auto readAll = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<char> inMemory = readAll(outPaths[0]);
  EXPECT_FALSE(inMemory.empty());
  EXPECT_TRUE(inMemory == readAll(outPaths[1]));
  for (const std::string& path : {inputPath, outPaths[0], outPaths[1]}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ofl
