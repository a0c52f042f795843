// Window-sharded fill executor with bounded peak memory.
//
// FillEngine::run holds the whole flattened layout plus every window's
// problem in RAM at once; contest-scale inputs (up to 31.8M polygons,
// PAPER.md) cannot. ShardedEngine runs the same Fig. 3 flow without ever
// materializing the layout. Stages 1-4 are fill::detail::Flow's steps,
// the ones FillEngine::run calls; only the passes around them differ:
//
//   ingest    one parse: stream GDS/OASIS -> flatten -> decompose
//             (gds::RectIngest, the in-memory loader's front end) into
//             per-layer pass-through spools, measuring the extents on the
//             way; then route each layer's spool into per-(layer,
//             window-row) spools (ShardStore, spill to disk over budget).
//             A rect inflated by minSpacing that crosses a row border is
//             routed into both rows — that is the halo that keeps
//             cross-window blocking exact.
//   bounds    bands of up to 8 window rows: the shared stage-0 row task
//             (fill::detail::prepareBand) reduces each window to scalars
//             (wire density, lower/upper bound); then Flow::plan over the
//             full scalar arrays, the in-memory inputs exactly.
//   passes    band by band, over the same bands: stage 0 rebuilds the
//             band's buckets and fill regions, Flow::candidateBand
//             generates and the candidates are spooled; Flow::replan; then
//             stage 0 rebuilds the wires, the candidates are read back,
//             Flow::sizingBand sizes and the fills are spooled.
//   output    streaming GDS writer: per layer, pass-through wires then
//             fills in window order — byte-identical to
//             Layout::writeGds (and so to Writer::writeFile(toGds())).
//
// A trace shows the in-memory stage spans (engine.planning,
// engine.candidates, engine.replanning, engine.sizing, engine.output);
// each pass's span and FillReport seconds cover its stage 0 and spooling,
// with one band.candidates or band.sizing span per band inside.
//
// Identity argument: every per-window input (bucket contents and order,
// fill regions, densities, targets) is reconstructed equal to what
// FillEngine::run assembles, the per-window steps are the same code, and
// the output serialization shares the in-memory writer's record
// encoders. The determinism suite pins this on s/b/m at 1 and 4 threads.
//
// Not supported with streaming: window-cache deposits and the ECO path
// (FillService rejects --stream ECO jobs with a clear error).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fill/fill_engine.hpp"

namespace ofl::fill {

struct ShardedOptions {
  /// Same knobs as the in-memory engine (windowCache is ignored).
  FillEngineOptions engine;
  /// Cap on the spools' in-memory bytes, not on peak RSS: the wire and
  /// candidate spools get half of it, the fill spools an eighth, and each
  /// spills to disk past its share. A band's working set (8 window rows
  /// of buckets, fill regions and problems) and per-thread scratch come on
  /// top; at 64 MiB suite xl peaks at 107-120 MiB.
  std::size_t memBudgetMiB = 512;
  /// Directory for spool spill files (defaults to the output's directory
  /// when empty).
  std::string spillDir;
  /// Read chunk for the streaming parsers (tests shrink it).
  std::size_t readerChunkBytes = 256 * 1024;
};

struct ShardedReport {
  /// The same counts, stats and stage seconds FillEngine::run reports:
  /// planningSeconds spans the bounds pass and both plans,
  /// candidateSeconds and sizingSeconds their passes (each pass's stage 0
  /// included), and `profile` times the shared stage-0 row task as
  /// region-prep, density-compute and planning exactly as in memory.
  FillReport fill;
  int cols = 0;        // window grid columns
  int rows = 0;        // window grid rows
  // Always 0; read only by the benchmark, to be dropped at its next change.
  int shardCount = 0;
  std::uint64_t spilledBytes = 0;  // spool bytes written to spill files
  std::uint64_t spillEvents = 0;   // budget-triggered spool flushes
  std::size_t wireCount = 0;       // wires read (datatype-1 fills dropped)
  long long outputBytes = 0;       // bytes of the written GDSII
  /// Stream + flatten + decompose + route into the row spools: the one
  /// parse of the input, which also measures its extents.
  double ingestSeconds = 0.0;
  // Always 0; read only by the benchmark, to be dropped at its next change.
  double fftSeconds = 0.0;
  double outputSeconds = 0.0;  // streamed GDSII output encoder
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedOptions& options) : options_(options) {}

  /// Bounded-memory extents scan (gds::ExtentScan, the rule runFile and
  /// service::loadFlatLayout apply during their parse): bbox over every
  /// structure's boundaries and the maximum GDS layer number, either file
  /// format.
  static bool scanExtents(const std::string& path, geom::Rect* bbox,
                          int* maxLayer, std::string* error);

  /// Streams `inputPath` through the sharded flow and writes the filled
  /// GDSII to `outputPath`. `die` overrides the input's extents.
  bool runFile(const std::string& inputPath, const std::string& outputPath,
               const std::optional<geom::Rect>& die, ShardedReport* report,
               std::string* error) const;

  const ShardedOptions& options() const { return options_; }

 private:
  ShardedOptions options_;
};

}  // namespace ofl::fill
