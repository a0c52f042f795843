#include "service/splice.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "gds/record_builder.hpp"
#include "gds/stream_writer.hpp"
#include "obs/trace.hpp"
#include "service/result_cache.hpp"

namespace ofl::service {

namespace {

constexpr std::size_t kRect = gds::record::kRectRecordBytes;
constexpr std::size_t kWords = kRect / 8;
// The XY payload of a rect element: five vertices of two int32.
constexpr std::size_t kXyPayloadBegin = 20;
constexpr std::size_t kXyPayloadEnd = 60;

std::int16_t gdsLayer(std::size_t l) {
  return static_cast<std::int16_t>(l + 1);
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Every byte of a datatype-0 rect element on one layer but its
// coordinates, compared a word at a time.
class RectFrame {
 public:
  explicit RectFrame(std::size_t l) {
    std::vector<std::uint8_t> record;
    gds::record::appendRect(record, gdsLayer(l), geom::Rect{}, 0);
    std::uint8_t mask[kRect];
    for (std::size_t i = 0; i < kRect; ++i) {
      const bool coord = i >= kXyPayloadBegin && i < kXyPayloadEnd;
      mask[i] = coord ? 0 : 0xff;
      record[i] &= mask[i];
    }
    for (std::size_t w = 0; w < kWords; ++w) {
      want_[w] = load64(record.data() + 8 * w);
      mask_[w] = load64(mask + 8 * w);
    }
  }

  bool matches(const std::uint8_t* element) const {
    std::uint64_t diff = 0;
    for (std::size_t w = 0; w < kWords; ++w) {
      diff |= (load64(element + 8 * w) & mask_[w]) ^ want_[w];
    }
    return diff == 0;
  }

 private:
  std::uint64_t want_[kWords];
  std::uint64_t mask_[kWords];
};

// Where the encoding of `wires` occurs verbatim in `input` at or after
// `from`: the first occurrence of its first element, checked element by
// element. nullopt when there is none or the run there differs.
std::optional<std::size_t> findRun(std::span<const std::uint8_t> input,
                                   std::size_t from, std::int16_t layer,
                                   const std::vector<geom::Rect>& wires) {
  std::vector<std::uint8_t> element;
  element.reserve(kRect);
  gds::record::appendRect(element, layer, wires.front(), 0);
  const auto hit =
      std::search(input.begin() + static_cast<std::ptrdiff_t>(from),
                  input.end(),
                  std::boyer_moore_horspool_searcher(element.begin(),
                                                     element.end()));
  const auto offset = static_cast<std::size_t>(hit - input.begin());
  if (hit == input.end() || wires.size() > (input.size() - offset) / kRect) {
    return std::nullopt;
  }
  for (std::size_t i = 1; i < wires.size(); ++i) {
    element.clear();
    gds::record::appendRect(element, layer, wires[i], 0);
    if (std::memcmp(input.data() + offset + i * kRect, element.data(),
                    kRect) != 0) {
      return std::nullopt;
    }
  }
  return offset;
}

}  // namespace

std::optional<WireSplice> findWireSpans(std::span<const std::uint8_t> input,
                                        const layout::Layout& chip) {
  WireSplice splice;
  splice.inputBytes = input.size();
  std::size_t cursor = 0;  // layers are written in order
  for (int l = 0; l < chip.numLayers(); ++l) {
    const std::vector<geom::Rect>& wires = chip.layer(l).wires;
    WireSplice::Run run{cursor, wires.size()};
    if (!wires.empty()) {
      const auto offset = findRun(input, cursor,
                                  gdsLayer(static_cast<std::size_t>(l)), wires);
      if (!offset.has_value()) return std::nullopt;
      run.offset = *offset;
      cursor = run.offset + kRect * run.count;
    }
    splice.layers.push_back(run);
  }
  return splice;
}

bool validSplice(std::span<const std::uint8_t> input,
                 const WireSplice& splice) {
  if (input.size() != splice.inputBytes) return false;
  for (std::size_t l = 0; l < splice.layers.size(); ++l) {
    const WireSplice::Run& run = splice.layers[l];
    if (run.offset > input.size() ||
        run.count > (input.size() - run.offset) / kRect) {
      return false;
    }
    const RectFrame frame(l);
    const std::uint8_t* element = input.data() + run.offset;
    for (std::size_t i = 0; i < run.count; ++i, element += kRect) {
      if (!frame.matches(element)) return false;
    }
  }
  return true;
}

long long writeSpliced(std::span<const std::uint8_t> input,
                       const WireSplice& splice, const CachedFill& fills,
                       const std::string& path) {
  obs::ScopedSpan span("gds.write", "io");
  // Layout::writeGds's frame and per-layer order: wires, then fills.
  gds::StreamWriter writer(path);
  if (!writer.ok()) return -1;
  writer.beginCell("TOP");
  std::vector<geom::Rect> layerFills;
  for (std::size_t l = 0; l < splice.layers.size(); ++l) {
    const WireSplice::Run& run = splice.layers[l];
    writer.addRaw(input.subspan(run.offset, kRect * run.count));
    fills.decodeLayer(l, layerFills);
    for (const geom::Rect& r : layerFills) {
      writer.addRect(gdsLayer(l), r, /*datatype=*/1);
    }
  }
  writer.endCell();
  return writer.finish();
}

}  // namespace ofl::service
