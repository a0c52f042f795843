// Wire protocol message types for `openfill serve` (docs/architecture.md,
// "Fill as a service").
//
// Every frame payload is one JSON object. Requests carry a "type" plus
// type-specific fields; job specs reuse the batch manifest line syntax
// (service/manifest.hpp) verbatim, so a job submitted over the wire and a
// manifest line with the same options produce byte-identical output.
//
//   {"type":"ping"}
//   {"type":"fill","client":"ci","spec":"wires.gds --out f.gds --window 1200"}
//   {"type":"eco","spec":"filled.gds --out f2.gds","changed":[xl,yl,xh,yh]}
//   {"type":"check","spec":"filled.gds","suite":"s"}
//   {"type":"stats"}            -> service + serve counters (JSON object)
//   {"type":"metrics"}          -> Prometheus text exposition
//   {"type":"metrics-json"}     -> metrics snapshot (openfill stats schema)
//   {"type":"trace","jobId":3}  -> spans recorded for that job id
//   {"type":"reload"}           -> re-read --config (admin; like SIGHUP)
//   {"type":"shutdown"}         -> graceful drain (admin; like SIGTERM)
//
// Responses always carry "ok" (bool) and, when false, "error" (string).
// Job responses add jobId/status/fills/cacheHit/queueSeconds/runSeconds/
// loadSeconds/writeSeconds/outputBytes. Parsing is strict: an unknown type
// or malformed field is a per-request error response, never a dropped
// connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json_util.hpp"
#include "geometry/rect.hpp"
#include "service/job.hpp"

namespace ofl::serve {

struct Request {
  enum class Type {
    kPing,
    kFill,
    kEco,
    kCheck,
    kStats,
    kMetrics,
    kMetricsJson,
    kTrace,
    kReload,
    kShutdown,
  };

  Type type = Type::kPing;
  /// Logical client identity for admission/fairness accounting; empty
  /// defaults to "anon". A client may hold several connections.
  std::string client;
  /// Manifest-style job line (fill/eco/check): input path + options.
  std::string spec;
  /// ECO: the wires-changed region.
  geom::Rect changed;
  bool hasChanged = false;
  /// Per-job deadline override in seconds (<= 0 uses the server default).
  double timeoutSeconds = 0.0;
  /// check: score-table suite and whether to run the 3-run determinism
  /// check (expensive; off by default over the wire).
  std::string suite = "s";
  bool determinism = false;
  /// trace: which job's spans to return.
  std::int64_t jobId = -1;

  static const char* typeName(Type t);
  static std::optional<Type> typeFromName(const std::string& name);

  /// Parses a request payload. nullopt + `*error` on malformed JSON,
  /// unknown type, or wrong field shape.
  static std::optional<Request> parse(const std::string& json,
                                      std::string* error);
  std::string toJson() const;
};

/// Response builders (server side). All return complete JSON objects.
std::string errorResponse(const std::string& message, bool rejected = false,
                          bool draining = false);
std::string okResponse();

struct JobResponse {
  std::uint64_t jobId = 0;
  service::JobStatus status = service::JobStatus::kFailed;
  std::string error;
  std::size_t fills = 0;
  bool cacheHit = false;
  bool spliced = false;  // a hit written without parsing the input
  std::uint64_t cacheKey = 0;
  double queueSeconds = 0.0;
  double runSeconds = 0.0;
  double loadSeconds = 0.0;   // the load and write stages of runSeconds
  double writeSeconds = 0.0;
  long long outputBytes = -1;
  std::size_t ecoWindowsSkipped = 0;
};
std::string toJson(const JobResponse& r);

/// Wraps a pre-rendered JSON object (service stats, metrics snapshot)
/// under the given key: {"ok":true,"<key>":<raw>}.
std::string wrapRawJson(const std::string& key, const std::string& rawJson);
/// Same for a text payload that needs escaping (Prometheus exposition).
std::string wrapText(const std::string& key, const std::string& text);

/// Client-side response accessors.
struct ParsedResponse {
  bool ok = false;
  bool rejected = false;  // admission rejection (retry later)
  bool draining = false;  // server shutting down
  std::string error;
  json::Value body;  // full response object
  std::string raw;   // the payload text verbatim (submit --json prints it)

  static std::optional<ParsedResponse> parse(const std::string& json);
};

}  // namespace ofl::serve
