#pragma once
/// \file defuzzify.hpp
/// Defuzzification of an aggregated output fuzzy set into a crisp value.

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "fuzzy/membership.hpp"

namespace facs::fuzzy {

/// Defuzzification strategies. Centroid is the FACS default (the standard
/// choice for Mamdani admission controllers of the paper's era); the rest
/// are provided for the design-ablation benchmarks.
enum class Defuzzifier {
  Centroid,       ///< Centre of gravity of the aggregated set.
  Bisector,       ///< Vertical line splitting the area in half.
  MeanOfMax,      ///< Mean of the maximizing interval(s).
  SmallestOfMax,  ///< Leftmost maximizing point.
  LargestOfMax,   ///< Rightmost maximizing point.
};

/// A sampled view of the aggregated output membership curve.
using AggregatedCurve = std::function<double(double)>;

/// Reusable working buffers for the allocation-free defuzzification path.
/// `x`/`mu`/`weights` hold the sampled curve when defuzzifying a callable;
/// `cumulative` is the bisector's running-area buffer. One scratch serves
/// any resolution (each call resizes to its own shape), so a warm scratch
/// keeps repeated defuzzification free of heap traffic.
struct DefuzzScratch {
  std::vector<double> x;
  std::vector<double> mu;
  std::vector<double> weights;
  std::vector<double> cumulative;
};

/// Defuzzifies \p curve over \p universe using \p resolution uniform samples.
///
/// If the curve is identically zero over the universe (no rule fired), the
/// universe midpoint is returned — a neutral value by construction of the
/// FACS output variables (A/R = 0 is "not reject, not accept").
///
/// \throws std::invalid_argument if resolution < 2 or the universe is empty.
[[nodiscard]] double defuzzify(Defuzzifier method, const AggregatedCurve& curve,
                               Interval universe, int resolution = 1001);

/// As above, reusing \p scratch for the sample buffers — allocation-free
/// once the scratch has warmed up, and bit-identical to the plain overload
/// (same grid, same arithmetic in the same order).
[[nodiscard]] double defuzzify(Defuzzifier method, const AggregatedCurve& curve,
                               Interval universe, int resolution,
                               DefuzzScratch& scratch);

/// The samples [lo, hi) of a grid.
struct SampleRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  [[nodiscard]] constexpr bool empty() const noexcept { return lo >= hi; }
  friend constexpr bool operator==(const SampleRange&,
                                   const SampleRange&) = default;
};

/// The samples defuzzifySampled() reads of a curve that is zero outside
/// \p support on an \p n-sample grid: \p support widened by one sample on
/// each side (so every segment with a nonzero end is integrated), clamped
/// to the grid. A caller fills only these samples of its curve buffer.
[[nodiscard]] constexpr SampleRange readRange(SampleRange support,
                                              std::size_t n) noexcept {
  return {support.lo > 0 ? support.lo - 1 : 0,
          support.hi < n ? support.hi + 1 : n};
}

/// Defuzzifies an already-sampled curve: \p x is the sample grid, \p mu the
/// membership at each sample, \p half_dx the trapezoid weights
/// (0.5 * (x[i+1] - x[i]) per segment, so |half_dx| == |x| - 1). This is
/// the engine's inference path — the grid and weights are precomputed once
/// when the engine is built and every inference only fills \p mu.
/// Bit-identical to sampling the equivalent callable at the same points.
///
/// The curve must be exactly +0 at every sample outside the non-empty
/// \p support ({0, x.size()} for a whole curve): only
/// readRange(support, x.size()) of \p mu is read, and the rest of \p mu
/// may hold anything. The result equals that of the whole zero-extended
/// curve bit for bit — the skipped centroid and bisector addends are
/// exactly zero, and the empty-curve fallbacks and the maximum-based seeds
/// still use the whole grid.
///
/// \throws std::invalid_argument on mismatched spans, fewer than 2 samples,
///         or a \p support that is empty or runs past the grid.
[[nodiscard]] double defuzzifySampled(Defuzzifier method,
                                      std::span<const double> x,
                                      std::span<const double> mu,
                                      std::span<const double> half_dx,
                                      SampleRange support,
                                      DefuzzScratch& scratch);

/// Fills \p weights with the trapezoid integration weights of grid \p x:
/// weights[i] = 0.5 * (x[i+1] - x[i]). The one formula both the engine's
/// tables and the sampling path use, so their integrals share every bit.
void fillTrapezoidWeights(std::span<const double> x,
                          std::vector<double>& weights);

[[nodiscard]] std::string_view toString(Defuzzifier method) noexcept;

}  // namespace facs::fuzzy
