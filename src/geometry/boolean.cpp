#include "geometry/boolean.hpp"

#include <algorithm>
#include <cassert>

#include "geometry/decompose.hpp"

namespace ofl::geom {
namespace {

struct Event {
  Coord x;
  Coord ylo;
  Coord yhi;
  int deltaA;
  int deltaB;
};

void buildEventsInto(std::span<const Rect> a, std::span<const Rect> b,
                     std::vector<Event>& events) {
  events.clear();
  events.reserve(2 * (a.size() + b.size()));
  for (const Rect& r : a) {
    if (r.empty()) continue;
    events.push_back({r.xl, r.yl, r.yh, +1, 0});
    events.push_back({r.xh, r.yl, r.yh, -1, 0});
  }
  for (const Rect& r : b) {
    if (r.empty()) continue;
    events.push_back({r.xl, r.yl, r.yh, 0, +1});
    events.push_back({r.xh, r.yl, r.yh, 0, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& l, const Event& r) { return l.x < r.x; });
}

// Vertical coverage state: y-boundary -> (deltaA, deltaB) count changes,
// in a sorted flat vector. Live boundaries at a sweep stop are only the
// shapes crossing the scanline, so the memmove behind insert()/erase()
// stays small and each() is a contiguous walk.
class CoverTable {
 public:
  void bump(Coord y, int da, int db) {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), y,
        [](const Entry& e, Coord key) { return e.y < key; });
    if (it != entries_.end() && it->y == y) {
      it->da += da;
      it->db += db;
      if (it->da == 0 && it->db == 0) entries_.erase(it);
    } else {
      entries_.insert(it, {y, da, db});
    }
  }
  template <typename Fn>
  void each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.y, e.da, e.db);
  }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    Coord y;
    int da;
    int db;
  };
  std::vector<Entry> entries_;
};

// Open runs: interval -> x where it started. Kept sorted by interval.
using OpenRuns = std::vector<std::pair<Interval, Coord>>;

// Reused sweep buffers, one set per thread.
struct SweepScratch {
  std::vector<Event> events;
  CoverTable cover;
  OpenRuns open;
  OpenRuns nextOpen;
  std::vector<Rect> byXl;       // unionArea's disjointness scan
  std::vector<Rect> openRects;  // rects of byXl still open at the scan's x
};

SweepScratch& sweepScratch() {
  static thread_local SweepScratch scratch;
  return scratch;
}

// Sweep body. Pred is an op-specific (inA, inB) -> bool the compiler
// inlines into the per-boundary walk; Emit(xl, xh, interval) is called
// once per maximal x-run of each covered y-interval.
//
// At each stop the covered y-intervals stream, in ascending order, into a
// diff against `open`: an interval present in both continues (keeping its
// original start x); one only in `open` is emitted as a finished rect;
// one only in the new cover starts a run at x. Any reshaped run
// (split/grow/shrink) simply closes and reopens, which keeps the output
// disjoint.
template <typename Pred, typename EmitFn>
void sweepLoop(const std::vector<Event>& events, Pred&& pred, CoverTable& cover,
               OpenRuns& open, OpenRuns& nextOpen, EmitFn&& emit) {
  auto ivLess = [](const Interval& l, const Interval& r) {
    return l.lo != r.lo ? l.lo < r.lo : l.hi < r.hi;
  };
  std::size_t i = 0;
  while (i < events.size()) {
    const Coord x = events[i].x;
    while (i < events.size() && events[i].x == x) {
      const Event& e = events[i];
      cover.bump(e.ylo, e.deltaA, e.deltaB);
      cover.bump(e.yhi, -e.deltaA, -e.deltaB);
      ++i;
    }
    nextOpen.clear();
    std::size_t oi = 0;
    int countA = 0;
    int countB = 0;
    bool active = false;
    Coord start = 0;
    cover.each([&](Coord y, int da, int db) {
      countA += da;
      countB += db;
      const bool nowActive = pred(countA > 0, countB > 0);
      if (nowActive && !active) {
        start = y;
        active = true;
      } else if (!nowActive && active) {
        const Interval cv{start, y};
        while (oi < open.size() && ivLess(open[oi].first, cv)) {
          emit(open[oi].second, x, open[oi].first);
          ++oi;
        }
        if (oi < open.size() && open[oi].first == cv) {
          nextOpen.push_back(open[oi]);
          ++oi;
        } else {
          nextOpen.push_back({cv, x});
        }
        active = false;
      }
    });
    for (; oi < open.size(); ++oi) emit(open[oi].second, x, open[oi].first);
    open.swap(nextOpen);
  }
  // All events processed; counts are zero, so every run was closed above.
}

template <typename EmitFn>
void sweep(std::span<const Rect> a, std::span<const Rect> b, BoolOp op,
           EmitFn&& emit) {
  SweepScratch& s = sweepScratch();
  buildEventsInto(a, b, s.events);
  if (s.events.empty()) return;
  s.cover.clear();
  s.open.clear();
  auto run = [&](auto pred) {
    sweepLoop(s.events, pred, s.cover, s.open, s.nextOpen, emit);
  };
  switch (op) {
    case BoolOp::kUnion: run([](bool inA, bool inB) { return inA || inB; });
      break;
    case BoolOp::kIntersect:
      run([](bool inA, bool inB) { return inA && inB; });
      break;
    case BoolOp::kSubtract:
      run([](bool inA, bool inB) { return inA && !inB; });
      break;
    case BoolOp::kXor: run([](bool inA, bool inB) { return inA != inB; });
      break;
  }
}

}  // namespace

std::vector<Rect> booleanOp(std::span<const Rect> a, std::span<const Rect> b,
                            BoolOp op) {
  std::vector<Rect> out;
  sweep(a, b, op, [&out](Coord xl, Coord xh, const Interval& iv) {
    if (xl < xh && !iv.empty()) out.push_back({xl, iv.lo, xh, iv.hi});
  });
  std::sort(out.begin(), out.end(), RectYXLess{});
  return out;
}

void booleanOpInto(std::span<const Rect> a, std::span<const Rect> b, BoolOp op,
                   std::vector<Rect>& out) {
  out.clear();
  sweep(a, b, op, [&out](Coord xl, Coord xh, const Interval& iv) {
    if (xl < xh && !iv.empty()) out.push_back({xl, iv.lo, xh, iv.hi});
  });
}

Area booleanArea(std::span<const Rect> a, std::span<const Rect> b,
                 BoolOp op) {
  Area total = 0;
  sweep(a, b, op, [&total](Coord xl, Coord xh, const Interval& iv) {
    total += static_cast<Area>(xh - xl) * iv.length();
  });
  return total;
}

Area unionArea(std::span<const Rect> rects) {
  // Most rect sets stage 0 sees (one window's wire clips, with or without
  // its fills) are pairwise disjoint, and then the union's area is the sum
  // of the areas. One pass in xl order tests each rect against the rects
  // still open at its left edge, whose x-interiors it overlaps, so a pair
  // overlaps exactly when their y-interiors do. Any overlap, or a budget of
  // pair tests linear in the set's size running out, hands the set to the
  // sweep, so the worst case stays the sweep's.
  SweepScratch& s = sweepScratch();
  std::vector<Rect>& byXl = s.byXl;
  byXl.clear();
  for (const Rect& r : rects) {
    if (!r.empty()) byXl.push_back(r);
  }
  std::sort(byXl.begin(), byXl.end(),
            [](const Rect& l, const Rect& r) { return l.xl < r.xl; });
  std::vector<Rect>& open = s.openRects;
  open.clear();
  std::size_t budget = 16 * byXl.size() + 64;
  Area total = 0;
  for (const Rect& r : byXl) {
    if (open.size() > budget) return booleanArea(rects, {}, BoolOp::kUnion);
    budget -= open.size();
    std::size_t kept = 0;
    for (const Rect& o : open) {
      // Closed: r and every later rect start at or right of o's end.
      if (o.xh <= r.xl) continue;
      if (o.yl < r.yh && r.yl < o.yh) {
        return booleanArea(rects, {}, BoolOp::kUnion);
      }
      open[kept++] = o;
    }
    open.resize(kept);
    open.push_back(r);
    total += r.area();
  }
  return total;
}

Area overlapAreaSum(const Rect& rect, std::span<const Rect> shapes) {
  Area total = 0;
  for (const Rect& s : shapes) total += rect.overlapArea(s);
  return total;
}

Area overlapAreaDisjoint(const Rect& rect, std::span<const Rect> shapes) {
  const Area total = overlapAreaSum(rect, shapes);
#ifndef NDEBUG
  // Disjointness precondition: the pairwise sum must equal the exact
  // covered overlap (coverage-counted once). O(n log n) sweep, debug only.
  assert(total == intersectionArea({&rect, 1}, shapes) &&
         "overlapAreaDisjoint requires pairwise-disjoint shapes");
#endif
  return total;
}

}  // namespace ofl::geom
