// Exact pairwise overlap sweep over rect sets.
//
// The fill flow's overlay terms -- Eqn. 8's candidate score and the
// overlay marginals of Eqn. 9 -- and the sizer's spacing pairs are sums
// or lists over pairs of shapes that overlap inside one window. Sorting
// the shapes along one axis and sweeping each arriving rect against the
// other set's active list (the rects whose span still covers the sweep
// line) reports every such pair exactly once, with no index to build and
// no cell pitch to choose. A pair is reported when its later rect (in
// sweep order) arrives, so the order of the reports is deterministic but
// not sorted; consumers bucket, sum or sort them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/prof.hpp"
#include "geometry/rect.hpp"

namespace ofl::geom {

/// Reusable sweep buffers; one per worker thread. Each call overwrites
/// them, so the allocations amortize across windows.
class OverlapSweep {
 public:
  /// Calls fn(i, j) once for every i, j with a[i] and b[j] overlapping in
  /// positive area. Empty rects never pair.
  template <typename Fn>
  void visit(std::span<const Rect> a, std::span<const Rect> b, Fn&& fn) {
    load(a, b);
    active_[0].clear();
    active_[1].clear();
    std::uint64_t found = 0;
    for (const Item& in : items_) {
      const std::size_t n = scan(in, active_[in.side ^ 1]);
      found += n;
      if (in.side == 0) {
        for (std::size_t k = 0; k < n; ++k) fn(in.id, hits_[k]);
      } else {
        for (std::size_t k = 0; k < n; ++k) fn(hits_[k], in.id);
      }
      active_[in.side].push_back(in);
    }
    prof::count(prof::Counter::kOverlapPairs, found);
  }

  /// Calls fn(i, j) with i < j once for every unordered pair of `rects`
  /// overlapping in positive area. Empty rects never pair.
  template <typename Fn>
  void visit(std::span<const Rect> rects, Fn&& fn) {
    load(rects, {});
    active_[0].clear();
    std::uint64_t found = 0;
    for (const Item& in : items_) {
      const std::size_t n = scan(in, active_[0]);
      found += n;
      for (std::size_t k = 0; k < n; ++k) {
        fn(std::min(hits_[k], in.id), std::max(hits_[k], in.id));
      }
      active_[0].push_back(in);
    }
    prof::count(prof::Counter::kOverlapPairs, found);
  }

 private:
  /// A rect in sweep coordinates: its span [lo, hi) along the sweep axis
  /// and [clo, chi) across it, as offsets from the sets' lowest edges (a
  /// window's extent fits 32 bits), its position in its set and the set
  /// it came from (0: a, 1: b).
  struct Item {
    std::uint32_t lo;
    std::uint32_t hi;
    std::uint32_t clo;
    std::uint32_t chi;
    std::uint32_t id;
    std::uint32_t side;
  };

  /// Fills items_ with the non-empty rects of both sets in sweep order:
  /// by low edge along the sweep axis, then set, then position. The sweep
  /// runs along y when the rects are wider than tall in sum, as rows of
  /// horizontal wires are: the active lists grow with the rects' extent
  /// along the sweep axis.
  void load(std::span<const Rect> a, std::span<const Rect> b);

  /// Drops from `active` the rects that end at or before the sweep line
  /// (in.lo), keeping the rest in order, and collects into hits_ the ids
  /// of the kept rects whose cross-axis span overlaps `in`'s. Every kept
  /// rect starts at or before the line and ends past it, so overlap along
  /// the sweep axis is implied. Branch-free, since which rects stay and
  /// which pair is data-dependent. Returns the number of hits.
  std::size_t scan(const Item& in, std::vector<Item>& active) {
    hits_.resize(std::max(hits_.size(), active.size()));
    Item* kept = active.data();
    std::uint32_t* hits = hits_.data();
    std::size_t keep = 0;
    std::size_t n = 0;
    for (const Item o : active) {
      const bool alive = o.hi > in.lo;
      kept[keep] = o;
      keep += static_cast<std::size_t>(alive);
      hits[n] = o.id;
      n += static_cast<std::size_t>(alive & (o.clo < in.chi) &
                                    (in.clo < o.chi));
    }
    active.resize(keep);
    return n;
  }

  std::vector<Item> items_;
  std::vector<Item> radix_;  // radix sort buffer
  std::vector<Item> active_[2];
  std::vector<std::uint32_t> hits_;
};

}  // namespace ofl::geom
