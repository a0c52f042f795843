#include "gds/stream_reader.hpp"

namespace ofl::gds {

RecordStream::RecordStream(const std::string& path)
    : RecordStream(path, Options{}) {}

RecordStream::RecordStream(const std::string& path, const Options& options)
    : source_(path, ByteSource::Options{options.chunkBytes}),
      maxRecordBytes_(options.maxRecordBytes) {
  if (!source_.ok()) error_ = "cannot open file";
}

RecordStream::Status RecordStream::next(RecordTag& tag,
                                        std::span<const std::uint8_t>& payload) {
  if (!error_.empty()) return Status::kError;
  source_.consume(pendingConsume_);
  pendingConsume_ = 0;

  const std::size_t headerAvail = source_.ensure(4);
  if (headerAvail == 0) {
    if (source_.ioError()) {
      error_ = "read error";
      return Status::kError;
    }
    return Status::kEnd;
  }
  if (headerAvail < 4) {
    error_ = "truncated record header";
    return Status::kError;
  }
  const std::uint16_t len = getU16(source_.data());
  if (len < 4) {
    error_ = "record length below header size";
    return Status::kError;
  }
  if (len > maxRecordBytes_) {
    error_ = "oversized record (" + std::to_string(len) + " bytes)";
    return Status::kError;
  }
  if (source_.ensure(len) < len) {
    error_ = source_.ioError() ? "read error" : "truncated record payload";
    return Status::kError;
  }
  tag = static_cast<RecordTag>(getU16(source_.data() + 2));
  payload = std::span<const std::uint8_t>(source_.data() + 4, len - 4u);
  pendingConsume_ = len;  // consumed on the next call; payload stays valid
  return Status::kRecord;
}

namespace {

std::string asciiFrom(std::span<const std::uint8_t> payload) {
  std::string s(payload.begin(), payload.end());
  while (!s.empty() && s.back() == '\0') s.pop_back();
  return s;
}

std::uint64_t u64From(std::span<const std::uint8_t> p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

// The one GDSII record state machine: elements are accumulated across
// their LAYER/DATATYPE/XY/SNAME/COLROW records and committed to the sink
// when the element (or its structure) ends.
class RecordMachine {
 public:
  explicit RecordMachine(StreamEvents& events) : events_(events) {}

  enum class Status { kContinue, kDone, kError };

  const std::string& error() const { return error_; }

  Status feed(RecordTag tag, std::span<const std::uint8_t> payload) {
    switch (tag) {
      case RecordTag::kHeader:
        sawHeader_ = true;
        break;
      case RecordTag::kBgnLib:
        break;
      case RecordTag::kLibName:
        events_.onLibraryName(asciiFrom(payload));
        break;
      case RecordTag::kUnits:
        if (payload.size() != 16) return fail("UNITS payload not 16 bytes");
        events_.onUnits(decodeReal8(u64From(payload.subspan(0, 8))),
                        decodeReal8(u64From(payload.subspan(8, 8))));
        break;
      case RecordTag::kBgnStr:
        commitElement();
        if (inCell_) events_.onEndCell();
        inCell_ = true;
        events_.onBeginCell();
        break;
      case RecordTag::kStrName:
        if (!inCell_) return fail("STRNAME outside structure");
        events_.onCellName(asciiFrom(payload));
        break;
      case RecordTag::kBoundary:
        if (!inCell_) return fail("BOUNDARY outside structure");
        commitElement();
        element_ = Element::kBoundary;
        // Reset in place: the vertex buffer keeps its capacity across
        // elements, so steady-state reading allocates nothing per shape.
        boundary_.layer = 0;
        boundary_.datatype = 0;
        boundary_.vertices.clear();
        break;
      case RecordTag::kSref:
        if (!inCell_) return fail("SREF outside structure");
        commitElement();
        element_ = Element::kSref;
        sref_ = Sref{};
        break;
      case RecordTag::kAref:
        if (!inCell_) return fail("AREF outside structure");
        commitElement();
        element_ = Element::kAref;
        aref_ = Aref{};
        break;
      case RecordTag::kSname:
        if (element_ == Element::kSref) {
          sref_.cellName = asciiFrom(payload);
        } else if (element_ == Element::kAref) {
          aref_.cellName = asciiFrom(payload);
        } else {
          return fail("SNAME outside reference");
        }
        break;
      case RecordTag::kColRow:
        if (element_ != Element::kAref || payload.size() < 4) {
          return fail("malformed COLROW");
        }
        aref_.cols = getU16(payload.data());
        aref_.rows = getU16(payload.data() + 2);
        break;
      case RecordTag::kLayer:
        if (element_ != Element::kBoundary || payload.size() < 2) {
          return fail("malformed LAYER");
        }
        boundary_.layer = static_cast<std::int16_t>(getU16(payload.data()));
        break;
      case RecordTag::kDataType:
        if (element_ != Element::kBoundary || payload.size() < 2) {
          return fail("malformed DATATYPE");
        }
        boundary_.datatype = static_cast<std::int16_t>(getU16(payload.data()));
        break;
      case RecordTag::kXy: {
        if (payload.size() % 8 != 0) return fail("XY payload not 8-aligned");
        if (element_ == Element::kSref) {
          if (payload.size() < 8) return fail("short SREF XY");
          sref_.origin = {getI32(payload.data()), getI32(payload.data() + 4)};
          break;
        }
        if (element_ == Element::kAref) {
          if (payload.size() < 24) return fail("short AREF XY");
          const geom::Coord x0 = getI32(payload.data());
          const geom::Coord y0 = getI32(payload.data() + 4);
          const geom::Coord xc = getI32(payload.data() + 8);
          const geom::Coord yr = getI32(payload.data() + 20);
          aref_.origin = {x0, y0};
          aref_.pitchX = aref_.cols > 0 ? (xc - x0) / aref_.cols : 0;
          aref_.pitchY = aref_.rows > 0 ? (yr - y0) / aref_.rows : 0;
          break;
        }
        if (element_ != Element::kBoundary) return fail("XY outside element");
        const std::size_t n = payload.size() / 8;
        boundary_.vertices.clear();
        for (std::size_t i = 0; i < n; ++i) {
          boundary_.vertices.push_back({getI32(payload.data() + 8 * i),
                                        getI32(payload.data() + 8 * i + 4)});
        }
        // Strip the repeated closing vertex GDS stores on disk.
        if (boundary_.vertices.size() >= 2 &&
            boundary_.vertices.front() == boundary_.vertices.back()) {
          boundary_.vertices.pop_back();
        }
        break;
      }
      case RecordTag::kEndEl:
        commitElement();
        break;
      case RecordTag::kEndStr:
        commitElement();
        if (inCell_) events_.onEndCell();
        inCell_ = false;
        break;
      case RecordTag::kEndLib:
        commitElement();
        if (inCell_) events_.onEndCell();
        inCell_ = false;
        if (!sawHeader_) return fail("ENDLIB without HEADER");
        return Status::kDone;
      default:
        // Unknown records are skipped (forward compatibility).
        break;
    }
    return Status::kContinue;
  }

 private:
  enum class Element { kNone, kBoundary, kSref, kAref };

  Status fail(const char* message) {
    error_ = message;
    return Status::kError;
  }

  void commitElement() {
    switch (element_) {
      case Element::kBoundary:
        events_.onBoundary(boundary_);
        break;
      case Element::kSref:
        events_.onSref(sref_);
        break;
      case Element::kAref:
        events_.onAref(aref_);
        break;
      case Element::kNone:
        break;
    }
    element_ = Element::kNone;
  }

  StreamEvents& events_;
  bool sawHeader_ = false;
  bool inCell_ = false;
  Element element_ = Element::kNone;
  Boundary boundary_;
  Sref sref_;
  Aref aref_;
  std::string error_;
};

// Record framing over an in-memory span, with RecordStream's interface
// and rejections (a record running past the end is truncated).
class SpanRecords {
 public:
  explicit SpanRecords(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  RecordStream::Status next(RecordTag& tag,
                            std::span<const std::uint8_t>& payload) {
    if (pos_ == bytes_.size()) return RecordStream::Status::kEnd;
    if (pos_ + 4 > bytes_.size()) return fail("truncated record header");
    const std::uint16_t len = getU16(bytes_.data() + pos_);
    if (len < 4) return fail("record length below header size");
    if (pos_ + len > bytes_.size()) return fail("truncated record payload");
    tag = static_cast<RecordTag>(getU16(bytes_.data() + pos_ + 2));
    payload = bytes_.subspan(pos_ + 4, len - 4u);
    pos_ += len;
    return RecordStream::Status::kRecord;
  }

  const std::string& error() const { return error_; }

 private:
  RecordStream::Status fail(const char* message) {
    error_ = message;
    return RecordStream::Status::kError;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::string error_;
};

// Feeds every record of `records` to one RecordMachine until ENDLIB.
template <typename Records>
bool runMachine(Records& records, StreamEvents& events, std::string* error) {
  RecordMachine machine(events);
  RecordTag tag;
  std::span<const std::uint8_t> payload;
  while (true) {
    switch (records.next(tag, payload)) {
      case RecordStream::Status::kError:
        if (error != nullptr) *error = records.error();
        return false;
      case RecordStream::Status::kEnd:
        if (error != nullptr) *error = "missing ENDLIB";
        return false;
      case RecordStream::Status::kRecord:
        break;
    }
    switch (machine.feed(tag, payload)) {
      case RecordMachine::Status::kError:
        if (error != nullptr) *error = machine.error();
        return false;
      case RecordMachine::Status::kDone:
        return true;
      case RecordMachine::Status::kContinue:
        break;
    }
  }
}

}  // namespace

bool StreamReader::scan(const std::string& path, StreamEvents& events,
                        std::string* error, const Options& options) {
  RecordStream records(path, options);
  return runMachine(records, events, error);
}

bool StreamReader::scan(std::span<const std::uint8_t> bytes,
                        StreamEvents& events, std::string* error) {
  SpanRecords records(bytes);
  return runMachine(records, events, error);
}

std::optional<Library> Reader::parse(std::span<const std::uint8_t> bytes) {
  LibraryCollector collector;
  if (!StreamReader::scan(bytes, collector, nullptr)) return std::nullopt;
  return collector.takeLibrary();
}

}  // namespace ofl::gds
