#include "geometry/overlap_sweep.hpp"

#include <array>
#include <cassert>
#include <limits>

namespace ofl::geom {

void OverlapSweep::load(std::span<const Rect> a, std::span<const Rect> b) {
  const std::span<const Rect> sets[2] = {a, b};
  Area tilt = 0;  // sum of height - width
  Coord minX = std::numeric_limits<Coord>::max();
  Coord minY = std::numeric_limits<Coord>::max();
  for (const auto& set : sets) {
    for (const Rect& r : set) {
      if (r.empty()) continue;
      tilt += r.height() - r.width();
      minX = std::min(minX, r.xl);
      minY = std::min(minY, r.yl);
    }
  }
  const bool alongY = tilt < 0;
  const auto offset = [](Coord v, Coord base) {
    assert(v - base < Coord{1} << 32);
    return static_cast<std::uint32_t>(v - base);
  };

  // Collected in (set, position) order, then radix-sorted by low edge one
  // byte at a time; each pass is stable, so ties keep that order.
  auto& in = radix_;
  in.clear();
  std::uint32_t maxLo = 0;
  for (std::uint32_t side = 0; side < 2; ++side) {
    const auto& set = sets[side];
    assert(set.size() < (std::size_t{1} << 32));
    for (std::size_t i = 0; i < set.size(); ++i) {
      const Rect& r = set[i];
      if (r.empty()) continue;
      const auto id = static_cast<std::uint32_t>(i);
      in.push_back(alongY ? Item{offset(r.yl, minY), offset(r.yh, minY),
                                 offset(r.xl, minX), offset(r.xh, minX), id,
                                 side}
                          : Item{offset(r.xl, minX), offset(r.xh, minX),
                                 offset(r.yl, minY), offset(r.yh, minY), id,
                                 side});
      maxLo = std::max(maxLo, in.back().lo);
    }
  }
  auto& out = items_;
  out.resize(in.size());
  std::array<std::uint32_t, 256> count;
  for (int shift = 0; shift == 0 || (shift < 32 && maxLo >> shift != 0);
       shift += 8) {
    count.fill(0);
    for (const Item& item : in) ++count[item.lo >> shift & 255];
    std::uint32_t start = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t n = c;
      c = start;
      start += n;
    }
    for (const Item& item : in) out[count[item.lo >> shift & 255]++] = item;
    in.swap(out);
  }
  items_.swap(radix_);  // the last pass swapped its output into radix_
}

}  // namespace ofl::geom
