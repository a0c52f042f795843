// Micro-benchmarks of the geometry substrate: Boolean sweeps, polygon
// decomposition and window bucketing at fill-flow-realistic sizes.
// Each kernel/size pair is one harness series (ns/op via the self-scaling
// micro helper); the indexed overlap-sum kernels first verify exact
// equality against the brute-force sums, and the bench fails if any probe
// diverges. BENCH_geometry.json.
//
// Usage: bench_geometry [reps] [--reps N] [--warmup N] [--out F]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/rng.hpp"
#include "geometry/boolean.hpp"
#include "geometry/decompose.hpp"
#include "geometry/grid_index.hpp"
#include "layout/window_grid.hpp"

using namespace ofl;
using namespace ofl::geom;

namespace {

// Keeps results observable so the optimizer cannot delete kernel calls.
volatile std::uint64_t gSink = 0;

std::vector<Rect> randomRects(int n, Coord extent, Coord maxEdge,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const Coord w = rng.uniformInt(4, maxEdge);
    const Coord h = rng.uniformInt(4, maxEdge);
    const Coord x = rng.uniformInt(0, extent - w);
    const Coord y = rng.uniformInt(0, extent - h);
    out.push_back({x, y, x + w, y + h});
  }
  return out;
}

std::vector<Rect> probeQueries(int count, std::uint64_t seed) {
  return randomRects(count, 19200, 400, seed);
}

struct Case {
  std::string name;
  std::function<void()> op;  // one kernel invocation
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ofl::bench;
  BenchArgs args = BenchArgs::parse(argc, argv, "", /*reps=*/3,
                                    /*warmup=*/1);
  if (!args.suite.empty() &&
      args.suite.find_first_not_of("0123456789") == std::string::npos) {
    args.reps = std::max(1, std::atoi(args.suite.c_str()));
    args.suite = "";
  }
  Harness h(args.harnessOptions("geometry"));

  std::vector<Case> cases;
  bool overlapSumsExact = true;

  for (const int n : {100, 1000, 10000}) {
    auto rects = randomRects(n, 4000, 120, 3);
    cases.push_back({"union_area_" + std::to_string(n),
                     [rects = std::move(rects)] {
                       gSink = gSink + static_cast<std::uint64_t>(unionArea(rects));
                     }});
  }
  for (const int n : {100, 1000, 10000}) {
    auto a = randomRects(n, 4000, 120, 3);
    auto b = randomRects(n, 4000, 120, 4);
    cases.push_back({"intersection_area_" + std::to_string(n),
                     [a = std::move(a), b = std::move(b)] {
                       gSink = gSink +
                           static_cast<std::uint64_t>(intersectionArea(a, b));
                     }});
  }
  for (const int n : {100, 1000}) {
    auto a = randomRects(n, 4000, 200, 5);
    auto b = randomRects(n, 4000, 60, 6);
    cases.push_back({"boolean_subtract_" + std::to_string(n),
                     [a = std::move(a), b = std::move(b)] {
                       gSink = gSink + booleanOp(a, b, BoolOp::kSubtract).size();
                     }});
  }
  for (const int steps : {10, 100, 1000}) {
    // x-monotone staircase with n steps.
    Rng rng(9);
    std::vector<Point> loop;
    loop.push_back({0, 0});
    loop.push_back({static_cast<Coord>(steps) * 10, 0});
    Coord prev = -1;
    for (int c = steps - 1; c >= 0; --c) {
      Coord hgt = rng.uniformInt(5, 200);
      if (hgt == prev) ++hgt;
      prev = hgt;
      loop.push_back({static_cast<Coord>(c + 1) * 10, hgt});
      loop.push_back({static_cast<Coord>(c) * 10, hgt});
    }
    Polygon poly(loop);
    cases.push_back({"decompose_staircase_" + std::to_string(steps),
                     [poly = std::move(poly)] {
                       gSink = gSink + decompose(poly).size();
                     }});
  }
  for (const int n : {1000, 20000}) {
    auto rects = randomRects(n, 19200, 120, 31);
    auto index = std::make_shared<GridIndex>(Rect{0, 0, 19200, 19200}, 600);
    for (std::uint32_t id = 0; id < rects.size(); ++id) {
      index->insert(id, rects[id]);
    }
    auto queries = std::make_shared<std::vector<Rect>>(probeQueries(256, 32));
    auto qi = std::make_shared<std::size_t>(0);
    cases.push_back({"grid_index_query_" + std::to_string(n),
                     [index, queries, qi] {
                       std::size_t hits = 0;
                       index->visit((*queries)[(*qi)++ & 255],
                                    [&hits](std::uint32_t) { ++hits; });
                       gSink = gSink + hits;
                     }});
  }
  // Pairwise overlap sums, brute vs GridIndex (the index DRC and litho
  // query). An indexed sum must equal the brute-force sum EXACTLY, so the
  // indexed cases verify equality on every probe query up front.
  for (const int n : {100, 1000, 20000}) {
    auto shapes = std::make_shared<std::vector<Rect>>(
        randomRects(n, 19200, 120, 77));
    auto queries = std::make_shared<std::vector<Rect>>(probeQueries(256, 78));
    const std::string tag = std::to_string(n);
    {
      auto qi = std::make_shared<std::size_t>(0);
      cases.push_back({"overlap_sum_brute_" + tag,
                       [shapes, queries, qi] {
                         gSink = gSink + static_cast<std::uint64_t>(overlapAreaSum(
                             (*queries)[(*qi)++ & 255], *shapes));
                       }});
    }
    {
      auto index =
          std::make_shared<GridIndex>(Rect{0, 0, 19200, 19200}, 400);
      for (std::uint32_t id = 0; id < shapes->size(); ++id) {
        index->insert(id, (*shapes)[id]);
      }
      auto indexedSum = [index, shapes](const Rect& q) {
        Area total = 0;
        index->visit(q, [&](std::uint32_t id) {
          total += q.overlapArea((*shapes)[id]);
        });
        return total;
      };
      for (const Rect& q : *queries) {
        if (indexedSum(q) != overlapAreaSum(q, *shapes)) {
          std::fprintf(stderr,
                       "FAIL: GridIndex overlap sum diverges from brute\n");
          overlapSumsExact = false;
        }
      }
      auto qi = std::make_shared<std::size_t>(0);
      cases.push_back({"overlap_sum_grid_" + tag,
                       [indexedSum, queries, qi] {
                         gSink = gSink + static_cast<std::uint64_t>(
                             indexedSum((*queries)[(*qi)++ & 255]));
                       }});
    }
  }
  for (const int n : {1000, 10000, 50000}) {
    auto rects = std::make_shared<std::vector<Rect>>(
        randomRects(n, 19200, 240, 12));
    auto grid = std::make_shared<layout::WindowGrid>(
        Rect{0, 0, 19200, 19200}, 1200);
    const std::string tag = std::to_string(n);
    cases.push_back({"window_bucketing_" + tag,
                     [rects, grid] {
                       gSink = gSink + grid->bucketClipped(*rects).size();
                     }});
    cases.push_back({"covered_area_" + tag,
                     [rects, grid] {
                       gSink = gSink + grid->coveredAreaPerWindow(*rects).size();
                     }});
  }

  std::vector<std::function<void()>> bodies;
  bodies.reserve(cases.size());
  for (Case& c : cases) {
    Series& s = h.series(c.name, "ns");
    bodies.push_back([&c, series = &s] {
      series->record(Harness::nsPerOp(c.op));
    });
  }
  h.runInterleaved(bodies);

  h.check("overlap_sums_exact", overlapSumsExact);
  return h.finish();
}
