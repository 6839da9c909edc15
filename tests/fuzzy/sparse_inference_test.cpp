/// Exactness of the sparse inference path. The engine tabulates each
/// output term only over its nonzero samples, and folds and integrates only
/// the hull of the active terms' supports. Each shortcut skips operations
/// that contribute an exact zero, so every table row must equal the
/// full-grid tabulation and every inference the curve oracle, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/flc1.hpp"
#include "core/flc2.hpp"
#include "curve_oracle.hpp"
#include "fuzzy/fdl.hpp"
#include "fuzzy/shapes.hpp"

namespace facs::fuzzy {
namespace {

constexpr std::array<Defuzzifier, 5> kDefuzzifiers{
    Defuzzifier::Centroid, Defuzzifier::Bisector, Defuzzifier::MeanOfMax,
    Defuzzifier::SmallestOfMax, Defuzzifier::LargestOfMax};
constexpr std::array<TNorm, 3> kTNorms{
    TNorm::Minimum, TNorm::AlgebraicProduct, TNorm::BoundedDifference};
constexpr std::array<SNorm, 3> kSNorms{
    SNorm::Maximum, SNorm::AlgebraicSum, SNorm::BoundedSum};

std::string withResolution(const std::string& body, int resolution) {
  return body + "resolution " + std::to_string(resolution) + "\n";
}

constexpr const char* kTipperFdl = R"(
engine tipper
input service 0 10
  term poor tri 0 0 5
  term good tri 5 5 5
  term great tri 10 5 0
input food 0 10
  term bad trap 0 2 0 4
  term tasty trap 8 10 4 0
output tip 0 30
  term low tri 5 5 5
  term medium tri 15 5 5
  term high tri 25 5 5
rule poor * => low weight 0.5
rule good * => medium
rule great bad => medium weight 0.25
rule great tasty => high weight 0.9
)";

/// Output terms of all five shapes plus the awkward windows: shoulders on
/// both universe edges, a triangle narrower than one grid step, a peak
/// beyond each end of the universe and smooth shapes nonzero everywhere.
constexpr const char* kShapesFdl = R"(
engine shapes
input v 0 1
  term lo tri 0 0 1
  term hi tri 1 1 0
input w 0 3
  term a tri 0 0 1
  term b tri 1 1 1
  term c tri 2 1 1
  term d tri 3 1 0
output y 0 10
  term edge_lo trap 0 0 0 1.5
  term narrow tri 4.003 0.001 0.001
  term gauss gauss 3 0.4
  term bell bell 6 0.8 3
  term sig sigmoid 8 4
  term beyond tri 12 5 5
  term before tri -3 0 4
  term edge_hi trap 10 10 1.5 0
rule lo a => edge_lo
rule lo b => narrow
rule lo c => gauss
rule lo d => bell
rule hi a => sig
rule hi b => beyond
rule hi c => before
rule hi d => edge_hi
)";

/// Every engine the fuzzy tests build, at \p resolution.
std::vector<MamdaniEngine> enginesAt(int resolution) {
  EngineConfig cfg;
  cfg.resolution = resolution;
  std::vector<MamdaniEngine> engines;
  engines.push_back(core::buildFlc1(cfg));
  engines.push_back(core::buildFlc2(cfg));
  engines.push_back(parseFdl(withResolution(kTipperFdl, resolution)));
  engines.push_back(parseFdl(withResolution(kShapesFdl, resolution)));
  return engines;
}

class SupportWindows : public ::testing::TestWithParam<int> {};

TEST_P(SupportWindows, RowsEqualFullGridTabulation) {
  for (const MamdaniEngine& engine : enginesAt(GetParam())) {
    const MamdaniEngine::OutputTables& tables = engine.tables();
    const std::size_t n = tables.x.size();
    ASSERT_EQ(n, static_cast<std::size_t>(GetParam()));
    ASSERT_EQ(tables.support.size(), engine.output().termCount());
    for (std::size_t t = 0; t < engine.output().termCount(); ++t) {
      std::vector<double> full(n);
      engine.output().tabulateTerm(t, tables.x, full);
      const std::vector<double> row(
          tables.term_mu.begin() + static_cast<std::ptrdiff_t>(t * n),
          tables.term_mu.begin() + static_cast<std::ptrdiff_t>((t + 1) * n));
      EXPECT_EQ(row, full) << engine.name() << " term " << t;
      // The window is exactly the nonzero samples: tight and contiguous.
      const SampleRange s = tables.support[t];
      ASSERT_LE(s.hi, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(full[i] != 0.0, i >= s.lo && i < s.hi)
            << engine.name() << " term " << t << " sample " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, SupportWindows,
                         ::testing::Values(2, 3, 1001, 4001));

TEST(SupportWindows, AwkwardTermsGetTheExpectedRanges) {
  const MamdaniEngine coarse = parseFdl(withResolution(kShapesFdl, 1001));
  const MamdaniEngine fine = parseFdl(withResolution(kShapesFdl, 4001));
  const auto support = [](const MamdaniEngine& e, const char* term) {
    return e.tables().support[*e.output().termIndex(term)];
  };
  // Shoulders touching the universe edges start and end on them.
  EXPECT_EQ(support(coarse, "edge_lo").lo, 0u);
  EXPECT_EQ(support(coarse, "edge_hi").hi, 1001u);
  // Narrower than one grid step: no sample at 0.01 spacing, one at 0.0025.
  EXPECT_TRUE(support(coarse, "narrow").empty());
  EXPECT_EQ(support(fine, "narrow").hi - support(fine, "narrow").lo, 1u);
  // Peaks beyond either end of the universe: only the near flank remains.
  EXPECT_EQ(support(coarse, "beyond").hi, 1001u);
  EXPECT_GT(support(coarse, "beyond").lo, 0u);
  EXPECT_EQ(support(coarse, "before").lo, 0u);
  EXPECT_LT(support(coarse, "before").hi, 1001u);
  // A Gaussian is nonzero far past its support() reach.
  EXPECT_EQ(support(coarse, "gauss"), (SampleRange{0, 1001}));
}

// ------------------------------------------------------------ zero tail --

/// Walks \p mf outward from the first sample at or above peak() on a grid
/// over [lo, hi] and checks the zero-tail contract on both flanks. Returns
/// whether a zero was seen, so the caller can tell the check bit.
bool checkZeroTail(const MembershipFunction& mf, double lo, double hi) {
  constexpr int kSamples = 4001;
  std::vector<double> x(kSamples);
  const double step = (hi - lo) / (kSamples - 1);
  for (int i = 0; i < kSamples; ++i) x[static_cast<std::size_t>(i)] = lo + step * i;
  const auto start = static_cast<std::size_t>(
      std::lower_bound(x.begin(), x.end(), mf.peak()) - x.begin());
  bool seen = false;
  const auto visit = [&](bool& zero, std::size_t i) {
    const double d = mf.degree(x[i]);
    if (zero) {
      EXPECT_EQ(d, 0.0) << mf.describe() << " at " << x[i];
    }
    if (d == 0.0) {
      EXPECT_FALSE(std::signbit(d)) << mf.describe() << " at " << x[i];
      zero = true;
      seen = true;
    }
  };
  bool right = false;
  for (std::size_t i = start; i < x.size(); ++i) visit(right, i);
  bool left = false;
  for (std::size_t i = start; i > 0; --i) visit(left, i - 1);
  return seen;
}

TEST(ZeroTail, HoldsForAllShapesOverRandomParameters) {
  std::mt19937_64 rng{20071019};
  std::uniform_real_distribution<double> centre{-50.0, 50.0};
  std::uniform_real_distribution<double> width{0.0, 20.0};
  std::uniform_real_distribution<double> log_scale{-3.0, 1.0};
  std::uniform_real_distribution<double> reach{1.0, 2000.0};
  std::array<int, 5> zeros_seen{};
  for (int trial = 0; trial < 200; ++trial) {
    const double c = centre(rng);
    const double l = width(rng);
    const double r = trial % 7 == 0 ? 0.0 : width(rng);
    std::vector<std::unique_ptr<MembershipFunction>> shapes;
    shapes.push_back(makeTriangle(c, l > 0.0 || r > 0.0 ? l : 1.0, r));
    shapes.push_back(makeTrapezoid(c, c + width(rng), l, r));
    shapes.push_back(makeGaussian(c, std::pow(10.0, log_scale(rng))));
    shapes.push_back(makeBell(c, std::pow(10.0, log_scale(rng)),
                              1.0 + 99.0 * width(rng) / 20.0));
    const double slope = std::pow(10.0, log_scale(rng) + 1.0);
    shapes.push_back(makeSigmoid(c, trial % 2 == 0 ? slope : -slope));
    const double span = reach(rng);
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      if (checkZeroTail(*shapes[s], c - span, c + span)) ++zeros_seen[s];
    }
  }
  for (std::size_t s = 0; s < zeros_seen.size(); ++s) {
    EXPECT_GT(zeros_seen[s], 0) << "shape " << s << " never reached zero";
  }
}

// ------------------------------------------------------------- oracle --

void expectMatchesOracle(const MamdaniEngine& engine,
                         std::span<const double> in) {
  const double engine_out = engine.infer(in);
  const double oracle_out = curveOracle(engine, in);
  if (std::isnan(oracle_out)) {
    EXPECT_TRUE(std::isnan(engine_out)) << engine.name();
  } else {
    EXPECT_EQ(engine_out, oracle_out) << engine.name() << " in[0]=" << in[0];
  }
}

/// inferTraced()'s activations are exactly the rules a full fold gives a
/// positive strength, in rule order and with the same strengths.
void expectActivationsMatchFullFold(const MamdaniEngine& engine,
                                    std::span<const double> in) {
  const std::vector<double> all = allRuleStrengths(engine, in);
  std::vector<RuleActivation> expected;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i] > 0.0) expected.push_back({i, all[i]});
  }
  const InferenceTrace trace = engine.inferTraced(in);
  ASSERT_EQ(trace.activations.size(), expected.size())
      << engine.name() << " in[0]=" << in[0];
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(trace.activations[k].rule_index, expected[k].rule_index);
    EXPECT_EQ(trace.activations[k].firing_strength,
              expected[k].firing_strength);
  }
}

TEST(SparseEdges, WildcardsFireWhereNoTermOfTheirInputHolds) {
  // Input v has a gap between its terms (0.3, 0.7) and w's terms reach
  // neither edge of its universe, so at some inputs every term of a
  // wildcarded input has degree 0. A wildcard skips its input, so
  // "* b" still fires at b's degree and "* *" always fires at its weight.
  constexpr const char* kGaps = R"(
engine gaps
input v 0 1
  term lo tri 0 0 0.3
  term hi tri 1 0.3 0
input w 0 1
  term a tri 0.3 0.2 0.2
  term b tri 0.7 0.2 0.2
output y 0 10
  term low tri 2 2 2
  term mid tri 5 2 2
  term high tri 8 2 2
rule lo a => low
rule * b => mid weight 0.7
rule * * => high weight 0.4
)";
  for (TNorm conj : kTNorms) {
    for (Defuzzifier defuzz : kDefuzzifiers) {
      const MamdaniEngine engine = parseFdl(
          std::string{kGaps} + "conjunction " + std::string{toString(conj)} +
          "\ndefuzzifier " + std::string{toString(defuzz)} + "\n");
      for (double v : {-1.0, 0.0, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0, 2.0}) {
        for (double w : {0.0, 0.05, 0.3, 0.5, 0.6, 0.7, 0.95, 1.0}) {
          const std::array<double, 2> in{v, w};
          expectActivationsMatchFullFold(engine, in);
          expectMatchesOracle(engine, in);
        }
      }
      // In the gap with w off every term only the all-wildcard rule holds.
      const std::array<double, 2> gap{0.5, 0.0};
      const InferenceTrace trace = engine.inferTraced(gap);
      ASSERT_EQ(trace.activations.size(), 1u);
      EXPECT_EQ(trace.activations[0].rule_index, 2u);
      EXPECT_EQ(trace.activations[0].firing_strength, 0.4);
    }
  }
}

TEST(SparseEdges, NanActivationFoldsTheWholeRow) {
  // Smooth input terms map a NaN input to NaN degrees, and under a product
  // conjunction a NaN antecedent makes a rule's strength NaN even past a
  // zero one. Bounded-sum aggregation turns a NaN strength into a full
  // activation (min(1, a + NaN) is 1); probor keeps the activation NaN, and
  // impl(NaN, 0) is not 0, so the term's whole row must be folded (the
  // bisector then falls through to the grid's last sample).
  for (SNorm agg : {SNorm::BoundedSum, SNorm::AlgebraicSum}) {
    for (Defuzzifier defuzz : kDefuzzifiers) {
      EngineSpec spec;
      spec.name = "nan";
      spec.config.conjunction = TNorm::AlgebraicProduct;
      spec.config.aggregation = agg;
      spec.config.defuzzifier = defuzz;
      LinguisticVariable g{"g", Interval{0.0, 1.0}};
      g.addTerm("lo", makeGaussian(0.0, 0.2));
      g.addTerm("hi", makeGaussian(1.0, 0.2));
      LinguisticVariable t{"t", Interval{0.0, 1.0}};
      t.addTerm("lo", makeTriangle(0.0, 0.0, 0.5));
      t.addTerm("hi", makeTriangle(1.0, 0.5, 0.0));
      LinguisticVariable y{"y", Interval{0.0, 1.0}};
      y.addTerm("lo", makeTriangle(0.2, 0.2, 0.2));
      y.addTerm("hi", makeTriangle(0.6, 0.2, 0.2));
      spec.inputs = {g, t};
      spec.output = y;
      const std::vector<RuleSpec> rules{{{"lo", "lo"}, "lo"},
                                        {{"hi", "hi"}, "hi"}};
      spec.rules = rules;
      const MamdaniEngine engine{std::move(spec)};
      // t = 0.1: "hi" has degree 0, yet rule 1's strength is NaN.
      const std::array<double, 2> in{std::nan(""), 0.1};
      ASSERT_TRUE(std::isnan(allRuleStrengths(engine, in)[1]));
      if (agg == SNorm::BoundedSum) {
        EXPECT_FALSE(std::isnan(engine.infer(in)));
      }
      expectMatchesOracle(engine, in);
    }
  }
}

TEST(SparseEdges, ActivationExactlyOne) {
  for (TNorm impl : kTNorms) {
    for (SNorm agg : kSNorms) {
      for (Defuzzifier defuzz : kDefuzzifiers) {
        EngineConfig cfg;
        cfg.implication = impl;
        cfg.aggregation = agg;
        cfg.defuzzifier = defuzz;
        const MamdaniEngine flc1 = core::buildFlc1(cfg);
        const MamdaniEngine flc2 = core::buildFlc2(cfg);
        // Inputs on term peaks: the firing rule's strength is exactly 1.
        for (const auto& in : {std::array<double, 3>{0.0, 0.0, 0.0},
                               std::array<double, 3>{120.0, 0.0, 10.0},
                               std::array<double, 3>{30.0, -90.0, 0.0}}) {
          ASSERT_EQ(flc1.inferTraced(in).activations.front().firing_strength,
                    1.0);
          expectMatchesOracle(flc1, in);
        }
        for (const auto& in : {std::array<double, 3>{0.0, 0.0, 0.0},
                               std::array<double, 3>{1.0, 10.0, 40.0},
                               std::array<double, 3>{0.5, 5.0, 20.0}}) {
          expectMatchesOracle(flc2, in);
        }
      }
    }
  }
}

TEST(SparseEdges, RuleWeightsBelowOne) {
  for (TNorm impl : kTNorms) {
    for (SNorm agg : kSNorms) {
      for (Defuzzifier defuzz : kDefuzzifiers) {
        const std::string ops = std::string{"implication "} +
                                std::string{toString(impl)} +
                                "\naggregation " + std::string{toString(agg)} +
                                "\ndefuzzifier " +
                                std::string{toString(defuzz)} + "\n";
        const MamdaniEngine tipper =
            parseFdl(withResolution(kTipperFdl, 201) + ops);
        for (double s = 0.0; s <= 10.0; s += 2.5) {
          for (double f = 0.0; f <= 10.0; f += 2.5) {
            const std::array<double, 2> in{s, f};
            expectMatchesOracle(tipper, in);
          }
        }
      }
    }
  }
}

TEST(SparseEdges, LukasiewiczImplication) {
  for (SNorm agg : kSNorms) {
    for (Defuzzifier defuzz : kDefuzzifiers) {
      EngineConfig cfg;
      cfg.conjunction = TNorm::BoundedDifference;
      cfg.implication = TNorm::BoundedDifference;
      cfg.aggregation = agg;
      cfg.defuzzifier = defuzz;
      const MamdaniEngine flc1 = core::buildFlc1(cfg);
      const MamdaniEngine flc2 = core::buildFlc2(cfg);
      for (double a = -180.0; a <= 180.0; a += 30.0) {
        const std::array<double, 3> in{45.0, a, 3.0};
        expectMatchesOracle(flc1, in);
      }
      for (double cs = 0.0; cs <= 40.0; cs += 5.0) {
        const std::array<double, 3> in{0.4, 6.0, cs};
        expectMatchesOracle(flc2, in);
      }
    }
  }
}

TEST(SparseEdges, DisjointActiveTermsSpanTheWholeGrid) {
  constexpr const char* kDisjoint = R"(
engine disjoint
input v 0 1
  term lo tri 0 0 1
  term hi tri 1 1 0
output y 0 1
  term left trap 0 0 0 0.1
  term right trap 1 1 0.1 0
rule lo => left
rule hi => right
)";
  for (const char* agg : {"probor", "bsum"}) {
    for (TNorm impl : kTNorms) {
      for (Defuzzifier defuzz : kDefuzzifiers) {
        const MamdaniEngine engine = parseFdl(
            std::string{kDisjoint} + "aggregation " + agg +
            "\nimplication " + std::string{toString(impl)} +
            "\ndefuzzifier " + std::string{toString(defuzz)} + "\n");
        const auto& support = engine.tables().support;
        // Two supports at opposite ends, a gap between: the hull of both
        // is the whole grid.
        ASSERT_EQ(support[0].lo, 0u);
        ASSERT_EQ(support[1].hi, engine.tables().x.size());
        ASSERT_LT(support[0].hi, support[1].lo);
        for (double v : {0.3, 0.5, 0.7}) {
          const std::array<double, 1> in{v};
          expectMatchesOracle(engine, in);
        }
      }
    }
  }
}

TEST(SparseEdges, NoRuleActiveGivesTheMidpoint) {
  constexpr const char* kSparse = R"(
engine sparse
input v 0 1
  term lo tri 0 0 0.4
  term mid tri 0.5 0.1 0.1
  term hi tri 1 0.4 0
output y -2 6
  term a tri 0 1 1
  term b tri 4 1 1
rule lo => a
rule hi => b
)";
  for (Defuzzifier defuzz : kDefuzzifiers) {
    const MamdaniEngine engine = parseFdl(
        std::string{kSparse} + "defuzzifier " +
        std::string{toString(defuzz)} + "\n");
    const std::array<double, 1> in{0.5};  // only "mid" holds; no rule on it
    EXPECT_TRUE(engine.inferTraced(in).activations.empty());
    EXPECT_EQ(engine.infer(in), 2.0);
    expectMatchesOracle(engine, in);
  }
}

TEST(SparseEdges, MaximumToleranceEdge) {
  // Min implication clips the term at the rule weight, so the aggregated
  // curve's peak is the weight itself. Zero samples join the maximizing
  // set exactly when peak - 1e-9 <= 0. The term sits off-centre, so its
  // hull's midpoint differs from the grid's.
  const auto makeEngine = [](double weight, Defuzzifier defuzz) {
    EngineSpec spec;
    spec.name = "tiny";
    spec.config.defuzzifier = defuzz;
    LinguisticVariable v{"v", Interval{0.0, 1.0}};
    v.addTerm("on", makeTriangle(0.0, 0.0, 1.0));
    LinguisticVariable y{"y", Interval{0.0, 1.0}};
    y.addTerm("t", makeTriangle(0.7, 0.1, 0.1));
    spec.inputs.push_back(v);
    spec.output = y;
    const std::vector<RuleSpec> rules{{{"on"}, "t", weight}};
    spec.rules = rules;
    return MamdaniEngine{std::move(spec)};
  };
  const double above = std::nextafter(1e-9, 1.0);
  const double at = 1e-9;
  const double below = std::nextafter(1e-9, 0.0);
  const std::array<double, 1> in{0.0};
  constexpr double kNoArea = 1e-14;  // below the defuzzifiers' 1e-12
  for (double weight : {above, at, below, kNoArea}) {
    for (Defuzzifier defuzz : kDefuzzifiers) {
      expectMatchesOracle(makeEngine(weight, defuzz), in);
    }
  }
  // The edge is really crossed: zeros (x = 0 and x = 1) join the set at
  // and below the tolerance, and stay out above it.
  EXPECT_GT(makeEngine(above, Defuzzifier::SmallestOfMax).infer(in), 0.0);
  EXPECT_LT(makeEngine(above, Defuzzifier::LargestOfMax).infer(in), 1.0);
  EXPECT_EQ(makeEngine(at, Defuzzifier::SmallestOfMax).infer(in), 0.0);
  EXPECT_EQ(makeEngine(at, Defuzzifier::LargestOfMax).infer(in), 1.0);
  EXPECT_EQ(makeEngine(below, Defuzzifier::SmallestOfMax).infer(in), 0.0);
  // A curve with no area gives the whole grid's midpoint, not its hull's.
  for (Defuzzifier defuzz : kDefuzzifiers) {
    EXPECT_EQ(makeEngine(kNoArea, defuzz).infer(in), 0.5);
  }
}

TEST(SparseEdges, AllShapesThroughFdlMatchTheOracle) {
  for (int resolution : {2, 3, 1001, 4001}) {
    for (SNorm agg : kSNorms) {
      for (Defuzzifier defuzz : kDefuzzifiers) {
        const MamdaniEngine engine = parseFdl(
            withResolution(kShapesFdl, resolution) + "aggregation " +
            std::string{toString(agg)} + "\ndefuzzifier " +
            std::string{toString(defuzz)} + "\n");
        for (double v : {0.0, 0.4, 1.0}) {
          for (double w = 0.0; w <= 3.0; w += 0.5) {
            const std::array<double, 2> in{v, w};
            expectMatchesOracle(engine, in);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace facs::fuzzy
