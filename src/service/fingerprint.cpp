#include "service/fingerprint.hpp"

#include "common/hash.hpp"

namespace ofl::service {

std::uint64_t layoutContentHash(const layout::Layout& chip) {
  Fnv1a64 h;
  const geom::Rect& die = chip.die();
  h.i64(die.xl);
  h.i64(die.yl);
  h.i64(die.xh);
  h.i64(die.yh);
  h.i32(chip.numLayers());
  for (int l = 0; l < chip.numLayers(); ++l) {
    const auto& wires = chip.layer(l).wires;
    h.u64(wires.size());
    for (const geom::Rect& w : wires) {
      h.i64(w.xl);
      h.i64(w.yl);
      h.i64(w.xh);
      h.i64(w.yh);
    }
  }
  return h.digest();
}

std::uint64_t optionsFingerprint(const fill::FillEngineOptions& o) {
  Fnv1a64 h;
  h.i64(o.windowSize);
  // Design rules.
  h.i64(o.rules.minWidth);
  h.i64(o.rules.minSpacing);
  h.i64(o.rules.minArea);
  h.i64(o.rules.maxFillSize);
  h.f64(o.rules.maxDensity);
  // Planner weights.
  h.f64(o.plannerWeights.wSigma);
  h.f64(o.plannerWeights.wLine);
  h.f64(o.plannerWeights.wOutlier);
  h.f64(o.plannerWeights.betaSigma);
  h.f64(o.plannerWeights.betaLine);
  h.f64(o.plannerWeights.betaOutlier);
  // Candidate generation.
  h.f64(o.candidate.lambda);
  h.f64(o.candidate.gamma);
  h.boolean(o.candidate.lithoAvoid.has_value());
  if (o.candidate.lithoAvoid.has_value()) {
    h.i64(o.candidate.lithoAvoid->forbiddenLo);
    h.i64(o.candidate.lithoAvoid->forbiddenHi);
  }
  h.boolean(o.candidate.uniformCells);
  // Sizer. The backend is included even though every backend reaches the
  // same optimum: per-window step budgets can tie-break differently, and
  // byte-identity of cached replays must hold exactly.
  h.f64(o.sizer.eta);
  h.f64(o.sizer.etaWireFactor);
  h.i32(o.sizer.iterations);
  h.i32(static_cast<int>(o.sizer.backend));
  h.boolean(o.sizer.useLpSolver);
  // numThreads and cancel deliberately excluded (see header).
  return h.digest();
}

std::uint64_t cacheKey(const layout::Layout& chip,
                       const fill::FillEngineOptions& options) {
  return hashCombine(layoutContentHash(chip), optionsFingerprint(options));
}

std::uint64_t layoutFillsHash(const layout::Layout& chip) {
  Fnv1a64 h;
  h.i32(chip.numLayers());
  for (int l = 0; l < chip.numLayers(); ++l) {
    const auto& fills = chip.layer(l).fills;
    h.u64(fills.size());
    for (const geom::Rect& f : fills) {
      h.i64(f.xl);
      h.i64(f.yl);
      h.i64(f.xh);
      h.i64(f.yh);
    }
  }
  return h.digest();
}

std::uint64_t ecoCacheKey(const layout::Layout& chip,
                          const fill::FillEngineOptions& options,
                          const geom::Rect& changed) {
  Fnv1a64 h;
  h.str("eco");  // domain-separate from full-fill keys
  h.u64(cacheKey(chip, options));
  h.u64(layoutFillsHash(chip));
  h.i64(changed.xl);
  h.i64(changed.yl);
  h.i64(changed.xh);
  h.i64(changed.yh);
  return h.digest();
}

std::uint64_t rawInputKey(std::span<const std::uint8_t> bytes,
                          const fill::FillEngineOptions& options,
                          const std::optional<geom::Rect>& die, JobKind kind,
                          const geom::Rect& changed) {
  Fnv1a64 h;
  h.str("raw");  // domain-separate from layout keys
  h.u64(wordHash64(bytes.data(), bytes.size()));
  h.u64(bytes.size());
  h.u64(optionsFingerprint(options));
  h.boolean(die.has_value());
  const geom::Rect d = die.value_or(geom::Rect{});
  h.i64(d.xl);
  h.i64(d.yl);
  h.i64(d.xh);
  h.i64(d.yh);
  h.i32(static_cast<int>(kind));
  if (kind == JobKind::kEco) {
    h.i64(changed.xl);
    h.i64(changed.yl);
    h.i64(changed.xh);
    h.i64(changed.yh);
  }
  return h.digest();
}

}  // namespace ofl::service
