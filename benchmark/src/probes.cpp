// Probes of the traced run: spans recorded around calls into each layer's
// public functions, from outside the program.
#include <functional>
#include <optional>

#include "fill/sharded_engine.hpp"
#include "gds/gds_writer.hpp"
#include "gds/stream_reader.hpp"
#include "gds/stream_writer.hpp"
#include "service/layout_io.hpp"
#include "traced_flow.hpp"
#include "workloads.hpp"

namespace ofb {

namespace {

// nproc-thread repetitions of the traced and the untraced fill; medians
// are reported.
constexpr int kEngineReps = 3;

// One load -> fill -> write with the time of each part.
struct FillOp {
  double read = 0.0;
  double write = 0.0;
  double wall = 0.0;
  std::string bytes;
  std::optional<TracedFlow> flow;  // set for the rebuilt flow
};

FillOp fillOnce(const std::string& gdsPath, const std::string& outPath,
                int threads, bool traced) {
  FillOp op;
  Stopwatch wall;
  ofl::layout::Layout chip;
  std::string error;
  Stopwatch read;
  ofl::service::loadFlatLayout(gdsPath, std::nullopt, &chip, &error);
  op.read = read.seconds();
  if (traced) {
    op.flow = runTracedFlow(chip, engineOptions(threads));
  } else {
    ofl::fill::FillEngine(engineOptions(threads)).run(chip);
  }
  Stopwatch write;
  ofl::gds::Writer::writeFile(chip.toGds(), outPath);
  op.write = write.seconds();
  op.wall = wall.seconds();
  op.bytes = readFile(outPath);
  return op;
}

// Counts StreamReader events: the standalone read pass.
class BoundaryCounter : public ofl::gds::StreamEvents {
 public:
  void onBoundary(const ofl::gds::Boundary&) override { ++count; }
  std::size_t count = 0;
};

// Re-encodes every boundary through a StreamWriter, timing only the
// writer's calls (in batches, so the clock is read rarely).
class ReEncoder : public ofl::gds::StreamEvents {
 public:
  explicit ReEncoder(const std::string& path) : writer_(path) {
    writer_.beginCell("TOP");
  }
  void onBoundary(const ofl::gds::Boundary& b) override {
    batch_.push_back(b);
    if (batch_.size() == kBatch) flush();
  }
  long long finish(double* seconds) {
    flush();
    Stopwatch t;
    writer_.endCell();
    const long long bytes = writer_.finish();
    writeSeconds_ += t.seconds();
    *seconds = writeSeconds_;
    return bytes;
  }

 private:
  static constexpr std::size_t kBatch = 1 << 16;
  void flush() {
    Stopwatch t;
    for (const ofl::gds::Boundary& b : batch_) writer_.addBoundary(b);
    writeSeconds_ += t.seconds();
    batch_.clear();
  }
  ofl::gds::StreamWriter writer_;
  std::vector<ofl::gds::Boundary> batch_;
  double writeSeconds_ = 0.0;
};

}  // namespace

void engineProbe(const std::string& gdsPath, const std::string& dir,
                 Result& r) {
  const std::string untracedOut = joinPath(dir, "probe_engine.gds");
  const std::string tracedOut = joinPath(dir, "probe_traced.gds");
  const int threads = nproc();

  // 1 thread: the MCF and sizer counts repeat exactly only here (the
  // per-worker sizer scratch carries bases across whichever windows a
  // worker picks up).
  const FillOp serialRef = fillOnce(gdsPath, untracedOut, 1, false);
  const FillOp serial = fillOnce(gdsPath, tracedOut, 1, true);
  r.attempted += 2;
  if (serial.bytes != serialRef.bytes || serial.bytes.empty()) {
    r.fail("rebuilt flow differs from FillEngine::run at 1 thread");
    ++r.failed;
  }

  std::vector<FillOp> traced, untraced;
  for (int rep = 0; rep < kEngineReps; ++rep) {
    untraced.push_back(fillOnce(gdsPath, untracedOut, threads, false));
    traced.push_back(fillOnce(gdsPath, tracedOut, threads, true));
    r.attempted += 2;
    if (traced.back().bytes != untraced.back().bytes ||
        traced.back().bytes != serialRef.bytes) {
      r.fail("rebuilt flow differs from FillEngine::run at " +
             std::to_string(threads) + " threads");
      ++r.failed;
    }
  }
  auto med = [&](const std::function<double(const FillOp&)>& f,
                 const std::vector<FillOp>& ops) {
    std::vector<double> v;
    for (const FillOp& op : ops) v.push_back(f(op));
    return median(v);
  };
  auto flowMed = [&](const std::function<double(const TracedFlow&)>& f) {
    return med([&](const FillOp& op) { return f(*op.flow); }, traced);
  };

  r.add("gds.read_s", med([](const FillOp& o) { return o.read; }, traced),
        "s");
  r.add("gds.write_s", med([](const FillOp& o) { return o.write; }, traced),
        "s");
  r.add("layout.fill_regions_s",
        flowMed([](const TracedFlow& t) { return t.regions.busy; }), "s");
  r.add("density.map_s",
        flowMed([](const TracedFlow& t) { return t.densityMap.busy; }), "s");
  r.add("density.bounds_s",
        flowMed([](const TracedFlow& t) { return t.bounds.wall; }), "s");
  r.add("density.bounds.busy_s",
        flowMed([](const TracedFlow& t) { return t.bounds.busy; }), "s");
  r.add("density.bounds.par_eff",
        flowMed([](const TracedFlow& t) { return t.bounds.parEff(t.threads); }),
        "ratio");
  r.add("fill.plan_s", flowMed([](const TracedFlow& t) { return t.planSeconds; }),
        "s");
  r.add("fill.candidates.wall_s",
        flowMed([](const TracedFlow& t) { return t.candidates.wall; }), "s");
  r.add("fill.candidates.busy_s",
        flowMed([](const TracedFlow& t) { return t.candidates.busy; }), "s");
  r.add("fill.candidates.par_eff",
        flowMed([](const TracedFlow& t) {
          return t.candidates.parEff(t.threads);
        }),
        "ratio");
  r.add("fill.sizing.wall_s",
        flowMed([](const TracedFlow& t) { return t.sizing.wall; }), "s");
  r.add("fill.sizing.busy_s",
        flowMed([](const TracedFlow& t) { return t.sizing.busy; }), "s");
  r.add("fill.sizing.par_eff",
        flowMed([](const TracedFlow& t) { return t.sizing.parEff(t.threads); }),
        "ratio");
  // Single-threaded share of the nproc-thread load -> fill -> write.
  r.add("fill.serial_fraction",
        med([](const FillOp& o) {
              return (o.read + o.flow->serialSeconds + o.write) / o.wall;
            },
            traced),
        "ratio");
  r.add("fill.flow_wall_s",
        flowMed([](const TracedFlow& t) { return t.wallSeconds; }), "s");
  r.add("fill.flow_wall_s.t1", serial.flow->wallSeconds, "s");

  // Counts from the 1-thread run, each ratio next to its base.
  const TracedFlow& one = *serial.flow;
  const auto solves = static_cast<double>(one.sizer.solves);
  r.add("fill.windows", static_cast<double>(one.windows), "count");
  r.add("fill.candidates", static_cast<double>(one.candidateCount), "count");
  r.add("fill.fills", static_cast<double>(one.fillCount), "count");
  r.add("mcf.solves", solves, "count");
  r.add("mcf.warm_starts", static_cast<double>(one.sizer.warmStarts), "count");
  r.add("mcf.warm_start_ratio",
        solves > 0 ? static_cast<double>(one.sizer.warmStarts) / solves : 0.0,
        "ratio");
  r.add("mcf.early_exits", static_cast<double>(one.sizer.earlyExits), "count");
  r.add("mcf.early_exit_ratio",
        solves > 0 ? static_cast<double>(one.sizer.earlyExits) / solves : 0.0,
        "ratio");

  // The traced fill's own wall next to FillEngine::run's; the difference
  // is what the spans cost.
  r.add("trace.wall_s", med([](const FillOp& o) { return o.wall; }, traced),
        "s");
  r.add("trace.untraced_wall_s",
        med([](const FillOp& o) { return o.wall; }, untraced), "s");
}

void streamProbe(const std::string& gdsPath, const std::string& dir,
                 Result& r) {
  ofl::geom::Rect bbox;
  int maxLayer = 0;
  std::string error;
  Stopwatch scan;
  const bool scanned =
      ofl::fill::ShardedEngine::scanExtents(gdsPath, &bbox, &maxLayer, &error);
  r.add("stream.scan_s", scan.seconds(), "s");

  ofl::fill::ShardedOptions options;
  options.engine = engineOptions(nproc());
  options.memBudgetMiB = kStreamBudgetMiB;
  ofl::fill::ShardedReport rep;
  const std::string out = joinPath(dir, "probe_stream.gds");
  r.attempted += 1;
  if (!scanned ||
      !ofl::fill::ShardedEngine(options).runFile(gdsPath, out, std::nullopt,
                                                 &rep, &error)) {
    r.fail("streamed probe fill: " + error);
    ++r.failed;
  }
  const double engine = rep.fill.planningSeconds + rep.fill.candidateSeconds +
                        rep.fill.sizingSeconds;
  r.add("stream.ingest_s", rep.ingestSeconds, "s");
  r.add("stream.fft_s", rep.fftSeconds, "s");
  r.add("stream.engine_s", engine, "s");
  // Pre-scan, shard bookkeeping and the serial output encoder.
  r.add("stream.other_s",
        rep.fill.totalSeconds - rep.ingestSeconds - rep.fftSeconds - engine,
        "s");
  r.add("stream.spill_mib", static_cast<double>(rep.spilledBytes) / (1 << 20),
        "MiB");
  r.add("stream.spill_events", static_cast<double>(rep.spillEvents), "count");
  r.add("stream.shards", static_cast<double>(rep.shardCount), "count");

  const double mb = static_cast<double>(fileBytes(gdsPath)) / 1e6;
  BoundaryCounter counter;
  Stopwatch read;
  ofl::gds::StreamReader::scan(gdsPath, counter, &error);
  r.add("gds.stream_read_mb_per_s", mb / read.seconds(), "MB/s");

  double writeSeconds = 0.0;
  ReEncoder encoder(joinPath(dir, "probe_reencode.gds"));
  ofl::gds::StreamReader::scan(gdsPath, encoder, &error);
  const long long written = encoder.finish(&writeSeconds);
  r.add("gds.stream_write_mb_per_s",
        writeSeconds > 0 ? static_cast<double>(written) / 1e6 / writeSeconds
                         : 0.0,
        "MB/s");
}

}  // namespace ofb
