#include "serve/protocol.hpp"

#include <cstdio>

namespace ofl::serve {

namespace {

void appendKey(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

void appendString(std::string& out, const char* key, const std::string& v) {
  appendKey(out, key);
  out += '"';
  json::appendEscaped(out, v);
  out += '"';
}

}  // namespace

const char* Request::typeName(Type t) {
  switch (t) {
    case Type::kPing: return "ping";
    case Type::kFill: return "fill";
    case Type::kEco: return "eco";
    case Type::kCheck: return "check";
    case Type::kStats: return "stats";
    case Type::kMetrics: return "metrics";
    case Type::kMetricsJson: return "metrics-json";
    case Type::kTrace: return "trace";
    case Type::kReload: return "reload";
    case Type::kShutdown: return "shutdown";
  }
  return "?";
}

std::optional<Request::Type> Request::typeFromName(const std::string& name) {
  for (const Type t :
       {Type::kPing, Type::kFill, Type::kEco, Type::kCheck, Type::kStats,
        Type::kMetrics, Type::kMetricsJson, Type::kTrace, Type::kReload,
        Type::kShutdown}) {
    if (name == typeName(t)) return t;
  }
  return std::nullopt;
}

std::optional<Request> Request::parse(const std::string& text,
                                      std::string* error) {
  const auto doc = json::Value::parse(text);
  if (!doc.has_value() || !doc->isObject()) {
    *error = "request is not a JSON object";
    return std::nullopt;
  }
  const json::Value* type = doc->find("type");
  if (type == nullptr || !type->isString()) {
    *error = "request missing \"type\"";
    return std::nullopt;
  }
  const auto t = typeFromName(type->str);
  if (!t.has_value()) {
    *error = "unknown request type \"" + type->str + "\"";
    return std::nullopt;
  }
  Request req;
  req.type = *t;
  if (const json::Value* v = doc->find("client"); v != nullptr) {
    if (!v->isString()) {
      *error = "\"client\" must be a string";
      return std::nullopt;
    }
    req.client = v->str;
  }
  if (const json::Value* v = doc->find("spec"); v != nullptr) {
    if (!v->isString()) {
      *error = "\"spec\" must be a string";
      return std::nullopt;
    }
    req.spec = v->str;
  }
  if (const json::Value* v = doc->find("changed"); v != nullptr) {
    if (!v->isArray() || v->array.size() != 4 ||
        !v->array[0].isNumber() || !v->array[1].isNumber() ||
        !v->array[2].isNumber() || !v->array[3].isNumber()) {
      *error = "\"changed\" must be [xl,yl,xh,yh]";
      return std::nullopt;
    }
    req.changed = geom::Rect{static_cast<geom::Coord>(v->array[0].number),
                             static_cast<geom::Coord>(v->array[1].number),
                             static_cast<geom::Coord>(v->array[2].number),
                             static_cast<geom::Coord>(v->array[3].number)};
    req.hasChanged = true;
  }
  if (const json::Value* v = doc->find("timeoutS"); v != nullptr) {
    if (!v->isNumber()) {
      *error = "\"timeoutS\" must be a number";
      return std::nullopt;
    }
    req.timeoutSeconds = v->number;
  }
  if (const json::Value* v = doc->find("suite"); v != nullptr) {
    if (!v->isString()) {
      *error = "\"suite\" must be a string";
      return std::nullopt;
    }
    req.suite = v->str;
  }
  if (const json::Value* v = doc->find("determinism"); v != nullptr) {
    req.determinism = v->kind == json::Value::Kind::kBool && v->boolean;
  }
  if (const json::Value* v = doc->find("jobId"); v != nullptr) {
    if (!v->isNumber()) {
      *error = "\"jobId\" must be a number";
      return std::nullopt;
    }
    req.jobId = static_cast<std::int64_t>(v->number);
  }
  // Per-type required fields.
  if ((req.type == Type::kFill || req.type == Type::kEco ||
       req.type == Type::kCheck) &&
      req.spec.empty()) {
    *error = std::string(typeName(req.type)) + " request missing \"spec\"";
    return std::nullopt;
  }
  if (req.type == Type::kEco && !req.hasChanged) {
    *error = "eco request missing \"changed\"";
    return std::nullopt;
  }
  if (req.type == Type::kTrace && req.jobId < 0) {
    *error = "trace request missing \"jobId\"";
    return std::nullopt;
  }
  return req;
}

std::string Request::toJson() const {
  std::string out = "{";
  appendString(out, "type", typeName(type));
  if (!client.empty()) {
    out += ',';
    appendString(out, "client", client);
  }
  if (!spec.empty()) {
    out += ',';
    appendString(out, "spec", spec);
  }
  if (hasChanged) {
    out += ",\"changed\":[";
    json::appendNumber(out, static_cast<std::int64_t>(changed.xl));
    out += ',';
    json::appendNumber(out, static_cast<std::int64_t>(changed.yl));
    out += ',';
    json::appendNumber(out, static_cast<std::int64_t>(changed.xh));
    out += ',';
    json::appendNumber(out, static_cast<std::int64_t>(changed.yh));
    out += ']';
  }
  if (timeoutSeconds > 0) {
    out += ",\"timeoutS\":";
    json::appendNumber(out, timeoutSeconds);
  }
  if (type == Type::kCheck) {
    out += ',';
    appendString(out, "suite", suite);
    out += ",\"determinism\":";
    out += determinism ? "true" : "false";
  }
  if (type == Type::kTrace) {
    out += ",\"jobId\":";
    json::appendNumber(out, static_cast<std::int64_t>(jobId));
  }
  out += '}';
  return out;
}

std::string errorResponse(const std::string& message, bool rejected,
                          bool draining) {
  std::string out = "{\"ok\":false,";
  appendString(out, "error", message);
  if (rejected) out += ",\"rejected\":true";
  if (draining) out += ",\"draining\":true";
  out += '}';
  return out;
}

std::string okResponse() { return "{\"ok\":true}"; }

std::string toJson(const JobResponse& r) {
  std::string out = "{\"ok\":";
  out += r.status == service::JobStatus::kSucceeded ? "true" : "false";
  out += ",\"jobId\":";
  json::appendNumber(out, static_cast<std::uint64_t>(r.jobId));
  out += ',';
  appendString(out, "status", service::toString(r.status));
  if (!r.error.empty()) {
    out += ',';
    appendString(out, "error", r.error);
  }
  out += ",\"fills\":";
  json::appendNumber(out, static_cast<std::uint64_t>(r.fills));
  out += ",\"cacheHit\":";
  out += r.cacheHit ? "true" : "false";
  out += ",\"spliced\":";
  out += r.spliced ? "true" : "false";
  out += ",\"cacheKey\":\"";
  char key[24];
  std::snprintf(key, sizeof(key), "%016llx",
                static_cast<unsigned long long>(r.cacheKey));
  out += key;
  out += "\",\"queueSeconds\":";
  json::appendNumber(out, r.queueSeconds);
  out += ",\"runSeconds\":";
  json::appendNumber(out, r.runSeconds);
  out += ",\"loadSeconds\":";
  json::appendNumber(out, r.loadSeconds);
  out += ",\"writeSeconds\":";
  json::appendNumber(out, r.writeSeconds);
  out += ",\"outputBytes\":";
  json::appendNumber(out, static_cast<std::int64_t>(r.outputBytes));
  out += ",\"ecoWindowsSkipped\":";
  json::appendNumber(out, static_cast<std::uint64_t>(r.ecoWindowsSkipped));
  out += '}';
  return out;
}

std::string wrapRawJson(const std::string& key, const std::string& rawJson) {
  std::string out = "{\"ok\":true,\"";
  out += key;
  out += "\":";
  out += rawJson;
  out += '}';
  return out;
}

std::string wrapText(const std::string& key, const std::string& text) {
  std::string out = "{\"ok\":true,";
  appendString(out, key.c_str(), text);
  out += '}';
  return out;
}

std::optional<ParsedResponse> ParsedResponse::parse(const std::string& text) {
  auto doc = json::Value::parse(text);
  if (!doc.has_value() || !doc->isObject()) return std::nullopt;
  ParsedResponse r;
  const json::Value* ok = doc->find("ok");
  r.ok = ok != nullptr && ok->kind == json::Value::Kind::kBool && ok->boolean;
  if (const json::Value* e = doc->find("error");
      e != nullptr && e->isString()) {
    r.error = e->str;
  }
  const json::Value* rej = doc->find("rejected");
  r.rejected =
      rej != nullptr && rej->kind == json::Value::Kind::kBool && rej->boolean;
  const json::Value* drain = doc->find("draining");
  r.draining = drain != nullptr && drain->kind == json::Value::Kind::kBool &&
               drain->boolean;
  r.body = std::move(*doc);
  r.raw = text;
  return r;
}

}  // namespace ofl::serve
