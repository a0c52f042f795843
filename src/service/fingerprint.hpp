// Content-addressed cache keys for fill results.
//
// A cache key is the combination of (a) a stable 64-bit hash of the
// flattened input layout — die, layer count and every wire rectangle — and
// (b) a fingerprint of every FillEngineOptions field that can change the
// fill solution. Existing fills are excluded from (a) because the engine
// replaces them (FillEngine::run starts with clearFills), and numThreads
// is excluded from (b) because output is bit-identical for any thread
// count (PR-1 determinism contract) — so a cached result is valid for any
// batch --threads-per-job setting.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "fill/fill_engine.hpp"
#include "layout/layout.hpp"
#include "service/job.hpp"

namespace ofl::service {

std::uint64_t layoutContentHash(const layout::Layout& chip);
std::uint64_t optionsFingerprint(const fill::FillEngineOptions& options);

/// hashCombine(layoutContentHash, optionsFingerprint).
std::uint64_t cacheKey(const layout::Layout& chip,
                       const fill::FillEngineOptions& options);

/// Stable hash of the layout's existing fill rectangles (ECO inputs: the
/// previous solution is part of an incremental job's content).
std::uint64_t layoutFillsHash(const layout::Layout& chip);

/// Cache key for ECO jobs: cacheKey + the input fills + the changed rect,
/// domain-separated so an ECO result can never alias a full-fill result
/// on the same layout/options.
std::uint64_t ecoCacheKey(const layout::Layout& chip,
                          const fill::FillEngineOptions& options,
                          const geom::Rect& changed);

/// Key of a job's input file bytes, known before any parse: wordHash64
/// of the bytes and their length, the options fingerprint, the die
/// override, the job kind and, for ECO jobs, the changed rect. It names
/// result-cache aliases (ResultCache::addAlias), never entries, and like
/// wordHash64 it is stable within one platform only.
std::uint64_t rawInputKey(std::span<const std::uint8_t> bytes,
                          const fill::FillEngineOptions& options,
                          const std::optional<geom::Rect>& die, JobKind kind,
                          const geom::Rect& changed);

}  // namespace ofl::service
