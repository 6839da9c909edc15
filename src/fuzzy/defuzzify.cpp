#include "fuzzy/defuzzify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace facs::fuzzy {

namespace {

constexpr double kZeroArea = 1e-12;

/// The centroid and bisector sums below run over a span of the grid that
/// covers every segment with a nonzero end; each skipped segment's addend
/// is exactly zero, and adding +-0 to the +0 start or to a nonzero partial
/// sum changes nothing, so a sum over the span equals the full-grid sum bit
/// for bit. \p empty is the answer for a curve with no area: the midpoint of
/// the whole grid, which the span alone does not know.
double centroid(std::span<const double> x, std::span<const double> mu,
                std::span<const double> w, double empty) {
  // Trapezoidal integration of x*mu(x) and mu(x); w[i-1] = 0.5 * dx of the
  // segment, so each addend matches the historical 0.5 * dx * (...) bit for
  // bit (0.5 * dx is an exact product either way).
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    num += w[i - 1] * (x[i] * mu[i] + x[i - 1] * mu[i - 1]);
    den += w[i - 1] * (mu[i] + mu[i - 1]);
  }
  if (den < kZeroArea) return empty;
  return num / den;
}

double bisector(std::span<const double> x, std::span<const double> mu,
                std::span<const double> w, double empty,
                std::vector<double>& cumulative) {
  double total = 0.0;
  cumulative.assign(x.size(), 0.0);
  for (std::size_t i = 1; i < x.size(); ++i) {
    total += w[i - 1] * (mu[i] + mu[i - 1]);
    cumulative[i] = total;
  }
  if (total < kZeroArea) return empty;
  // The running area is zero before the span and equals total after it, so
  // the first crossing of half the area always lies inside the span.
  const double half = 0.5 * total;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (cumulative[i] >= half) {
      // Linear interpolation within the segment for a stable answer.
      const double seg = cumulative[i] - cumulative[i - 1];
      const double t = seg > 0.0 ? (half - cumulative[i - 1]) / seg : 0.0;
      return x[i - 1] + t * (x[i] - x[i - 1]);
    }
  }
  return x.back();
}

enum class MaxPick { Mean, Smallest, Largest };

/// \p mu is read only on \p span; every other sample is zero.
double ofMax(std::span<const double> x, std::span<const double> mu,
             SampleRange span, MaxPick pick) {
  double peak = 0.0;
  for (std::size_t i = span.lo; i < span.hi; ++i) peak = std::max(peak, mu[i]);
  if (peak < kZeroArea) return 0.5 * (x.front() + x.back());
  const double tol = 1e-9;
  const double floor = peak - tol;
  // Zero samples belong to the maximizing set only when floor <= 0; then
  // the scan covers the whole grid and reads them as the zeros they are.
  const SampleRange scan = floor > 0.0 ? span : SampleRange{0, x.size()};
  double sum = 0.0;
  std::size_t count = 0;
  double smallest = x.back();
  double largest = x.front();
  for (std::size_t i = scan.lo; i < scan.hi; ++i) {
    const double m = i >= span.lo && i < span.hi ? mu[i] : 0.0;
    if (m >= floor) {
      sum += x[i];
      ++count;
      smallest = std::min(smallest, x[i]);
      largest = std::max(largest, x[i]);
    }
  }
  switch (pick) {
    case MaxPick::Mean:
      return sum / static_cast<double>(count);
    case MaxPick::Smallest:
      return smallest;
    case MaxPick::Largest:
      return largest;
  }
  return sum / static_cast<double>(count);
}

/// \p span is the read range: every sample of \p mu outside it is zero.
double dispatch(Defuzzifier method, std::span<const double> x,
                std::span<const double> mu, std::span<const double> w,
                SampleRange span, std::vector<double>& cumulative) {
  const double empty = 0.5 * (x.front() + x.back());
  const std::size_t len = span.hi - span.lo;
  const auto xs = x.subspan(span.lo, len);
  const auto ms = mu.subspan(span.lo, len);
  const auto ws = w.subspan(span.lo, len - 1);
  switch (method) {
    case Defuzzifier::Centroid:
      return centroid(xs, ms, ws, empty);
    case Defuzzifier::Bisector:
      return bisector(xs, ms, ws, empty, cumulative);
    case Defuzzifier::MeanOfMax:
      return ofMax(x, mu, span, MaxPick::Mean);
    case Defuzzifier::SmallestOfMax:
      return ofMax(x, mu, span, MaxPick::Smallest);
    case Defuzzifier::LargestOfMax:
      return ofMax(x, mu, span, MaxPick::Largest);
  }
  return centroid(xs, ms, ws, empty);
}

}  // namespace

void fillTrapezoidWeights(std::span<const double> x,
                          std::vector<double>& weights) {
  weights.resize(x.empty() ? 0 : x.size() - 1);
  for (std::size_t i = 1; i < x.size(); ++i) {
    weights[i - 1] = 0.5 * (x[i] - x[i - 1]);
  }
}

double defuzzify(Defuzzifier method, const AggregatedCurve& curve,
                 Interval universe, int resolution, DefuzzScratch& scratch) {
  if (resolution < 2) {
    throw std::invalid_argument("defuzzification resolution must be >= 2");
  }
  if (!(universe.lo < universe.hi)) {
    throw std::invalid_argument("defuzzification universe is empty");
  }
  const auto n = static_cast<std::size_t>(resolution);
  scratch.x.resize(n);
  scratch.mu.resize(n);
  const double step = universe.width() / (resolution - 1);
  for (int i = 0; i < resolution; ++i) {
    const double x = universe.lo + step * i;
    scratch.x[static_cast<std::size_t>(i)] = x;
    scratch.mu[static_cast<std::size_t>(i)] = curve(x);
  }
  fillTrapezoidWeights(scratch.x, scratch.weights);
  return dispatch(method, scratch.x, scratch.mu, scratch.weights,
                  SampleRange{0, n}, scratch.cumulative);
}

double defuzzify(Defuzzifier method, const AggregatedCurve& curve,
                 Interval universe, int resolution) {
  // Shared per thread: repeated callable defuzzification (the curve
  // oracle in the tests, examples) stays allocation-free after warmup.
  static thread_local DefuzzScratch scratch;
  return defuzzify(method, curve, universe, resolution, scratch);
}

double defuzzifySampled(Defuzzifier method, std::span<const double> x,
                        std::span<const double> mu,
                        std::span<const double> half_dx, SampleRange support,
                        DefuzzScratch& scratch) {
  if (x.size() < 2) {
    throw std::invalid_argument("defuzzification needs >= 2 samples");
  }
  if (mu.size() != x.size() || half_dx.size() != x.size() - 1) {
    throw std::invalid_argument(
        "defuzzification sample spans have mismatched sizes");
  }
  if (support.empty() || support.hi > x.size()) {
    throw std::invalid_argument(
        "defuzzification support must be a non-empty range of the grid");
  }
  return dispatch(method, x, mu, half_dx, readRange(support, x.size()),
                  scratch.cumulative);
}

std::string_view toString(Defuzzifier method) noexcept {
  switch (method) {
    case Defuzzifier::Centroid:
      return "centroid";
    case Defuzzifier::Bisector:
      return "bisector";
    case Defuzzifier::MeanOfMax:
      return "mom";
    case Defuzzifier::SmallestOfMax:
      return "som";
    case Defuzzifier::LargestOfMax:
      return "lom";
  }
  return "centroid";
}

}  // namespace facs::fuzzy
