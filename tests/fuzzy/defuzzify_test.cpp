#include "fuzzy/defuzzify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace facs::fuzzy {
namespace {

const Interval kUnit{0.0, 1.0};

TEST(Defuzzify, CentroidOfSymmetricTriangle) {
  const Triangular tri{0.5, 0.25, 0.25};
  const double c = defuzzify(
      Defuzzifier::Centroid, [&](double x) { return tri.degree(x); }, kUnit);
  EXPECT_NEAR(c, 0.5, 1e-6);
}

TEST(Defuzzify, CentroidOfRightShoulderPullsRight) {
  const Trapezoidal shoulder{0.8, 1.0, 0.2, 0.0};
  const double c = defuzzify(
      Defuzzifier::Centroid, [&](double x) { return shoulder.degree(x); },
      kUnit);
  EXPECT_GT(c, 0.8);
  EXPECT_LT(c, 1.0);
}

TEST(Defuzzify, CentroidOfAsymmetricTriangleAnalytic) {
  // Triangle with vertices (0,0), (0.25,1), (1,0): centroid x = (0+0.25+1)/3.
  const Triangular tri{0.25, 0.25, 0.75};
  const double c = defuzzify(
      Defuzzifier::Centroid, [&](double x) { return tri.degree(x); }, kUnit,
      20001);
  EXPECT_NEAR(c, (0.0 + 0.25 + 1.0) / 3.0, 1e-4);
}

TEST(Defuzzify, BisectorSplitsAreaInHalf) {
  const Triangular tri{0.5, 0.5, 0.5};
  const double b = defuzzify(
      Defuzzifier::Bisector, [&](double x) { return tri.degree(x); }, kUnit);
  EXPECT_NEAR(b, 0.5, 1e-6);
}

TEST(Defuzzify, BisectorOfUniformCurve) {
  const double b = defuzzify(
      Defuzzifier::Bisector, [](double) { return 0.7; }, Interval{2.0, 6.0});
  EXPECT_NEAR(b, 4.0, 1e-6);
}

TEST(Defuzzify, MaxFamilyOnPlateau) {
  const Trapezoidal trap{0.4, 0.6, 0.2, 0.2};
  const AggregatedCurve curve = [&](double x) { return trap.degree(x); };
  EXPECT_NEAR(defuzzify(Defuzzifier::MeanOfMax, curve, kUnit), 0.5, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::SmallestOfMax, curve, kUnit), 0.4, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::LargestOfMax, curve, kUnit), 0.6, 1e-3);
}

TEST(Defuzzify, MaxFamilyOnClippedCurve) {
  // A triangle clipped at 0.5 has a maximizing plateau over [0.25, 0.75].
  const Triangular tri{0.5, 0.5, 0.5};
  const AggregatedCurve curve = [&](double x) {
    return std::min(tri.degree(x), 0.5);
  };
  EXPECT_NEAR(defuzzify(Defuzzifier::SmallestOfMax, curve, kUnit), 0.25, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::LargestOfMax, curve, kUnit), 0.75, 1e-3);
  EXPECT_NEAR(defuzzify(Defuzzifier::MeanOfMax, curve, kUnit), 0.5, 1e-3);
}

class EmptyCurveNeutral : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(EmptyCurveNeutral, ZeroCurveYieldsUniverseMidpoint) {
  // No rule fired: the FACS output universes are built so the midpoint is
  // the neutral decision (A/R = 0).
  const double v = defuzzify(
      GetParam(), [](double) { return 0.0; }, Interval{-1.0, 1.0});
  EXPECT_NEAR(v, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(All, EmptyCurveNeutral,
                         ::testing::Values(Defuzzifier::Centroid,
                                           Defuzzifier::Bisector,
                                           Defuzzifier::MeanOfMax,
                                           Defuzzifier::SmallestOfMax,
                                           Defuzzifier::LargestOfMax));

class WithinUniverseProperty : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(WithinUniverseProperty, ResultAlwaysInsideUniverse) {
  const Interval u{-3.0, 7.0};
  const Triangular tri{6.0, 2.0, 1.0};
  const double v = defuzzify(
      GetParam(), [&](double x) { return tri.degree(x); }, u);
  EXPECT_GE(v, u.lo);
  EXPECT_LE(v, u.hi);
}

INSTANTIATE_TEST_SUITE_P(All, WithinUniverseProperty,
                         ::testing::Values(Defuzzifier::Centroid,
                                           Defuzzifier::Bisector,
                                           Defuzzifier::MeanOfMax,
                                           Defuzzifier::SmallestOfMax,
                                           Defuzzifier::LargestOfMax));

TEST(Defuzzify, RejectsBadArguments) {
  const AggregatedCurve flat = [](double) { return 1.0; };
  EXPECT_THROW((void)defuzzify(Defuzzifier::Centroid, flat, kUnit, 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)defuzzify(Defuzzifier::Centroid, flat, Interval{1.0, 1.0}),
      std::invalid_argument);
}

TEST(Defuzzify, ToStringNames) {
  EXPECT_EQ(toString(Defuzzifier::Centroid), "centroid");
  EXPECT_EQ(toString(Defuzzifier::Bisector), "bisector");
  EXPECT_EQ(toString(Defuzzifier::MeanOfMax), "mom");
  EXPECT_EQ(toString(Defuzzifier::SmallestOfMax), "som");
  EXPECT_EQ(toString(Defuzzifier::LargestOfMax), "lom");
}

class SampledMatchesCurve : public ::testing::TestWithParam<Defuzzifier> {};

TEST_P(SampledMatchesCurve, PresampledPathIsBitIdentical) {
  // defuzzifySampled is the engine's entry point: the caller hands in
  // the grid, membership values and trapezoid weights that the curve
  // overload would otherwise compute per call. Rebuilding those arrays with
  // the same formulas must reproduce the curve overload bit for bit.
  const Interval u{-3.0, 7.0};
  const Triangular tri{6.0, 2.0, 1.0};
  const AggregatedCurve curve = [&](double x) { return tri.degree(x); };
  for (int resolution : {2, 11, 101, 1001}) {
    std::vector<double> x(static_cast<std::size_t>(resolution));
    std::vector<double> mu(x.size());
    const double step = u.width() / static_cast<double>(resolution - 1);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = u.lo + step * static_cast<double>(i);
      mu[i] = curve(x[i]);
    }
    std::vector<double> weights;
    fillTrapezoidWeights(x, weights);
    ASSERT_EQ(weights.size(), x.size() - 1);

    DefuzzScratch scratch;
    const SampleRange whole{0, x.size()};
    const double sampled = defuzzifySampled(GetParam(), x, mu, weights,
                                            whole, scratch);
    const double direct = defuzzify(GetParam(), curve, u, resolution);
    EXPECT_EQ(sampled, direct) << "resolution " << resolution;
    // A dirty scratch (here: warm from the previous resolution and from
    // this call's own buffers) must not change the answer.
    EXPECT_EQ(defuzzifySampled(GetParam(), x, mu, weights, whole, scratch),
              direct);

    // Given the curve's nonzero samples, only those and one neighbour on
    // each side are read: NaN anywhere else must not reach the answer.
    SampleRange support{x.size(), 0};
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (mu[i] == 0.0) continue;
      support.lo = std::min(support.lo, i);
      support.hi = i + 1;
    }
    if (support.empty()) continue;
    const SampleRange read = readRange(support, x.size());
    std::vector<double> dirty(x.size(), std::nan(""));
    std::copy(mu.begin() + static_cast<std::ptrdiff_t>(read.lo),
              mu.begin() + static_cast<std::ptrdiff_t>(read.hi),
              dirty.begin() + static_cast<std::ptrdiff_t>(read.lo));
    EXPECT_EQ(
        defuzzifySampled(GetParam(), x, dirty, weights, support, scratch),
        direct)
        << "resolution " << resolution;
  }
}

INSTANTIATE_TEST_SUITE_P(All, SampledMatchesCurve,
                         ::testing::Values(Defuzzifier::Centroid,
                                           Defuzzifier::Bisector,
                                           Defuzzifier::MeanOfMax,
                                           Defuzzifier::SmallestOfMax,
                                           Defuzzifier::LargestOfMax));

TEST(Defuzzify, ScratchOverloadMatchesLegacyOverload) {
  const Triangular tri{0.25, 0.25, 0.75};
  const AggregatedCurve curve = [&](double x) { return tri.degree(x); };
  DefuzzScratch scratch;
  for (Defuzzifier d :
       {Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
        Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax}) {
    EXPECT_EQ(defuzzify(d, curve, kUnit, 501, scratch),
              defuzzify(d, curve, kUnit, 501));
  }
}

}  // namespace
}  // namespace facs::fuzzy
