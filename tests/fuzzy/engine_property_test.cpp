/// Property sweeps over the Mamdani engine: for every combination of
/// inference operators and defuzzifiers, the engine must keep its output
/// inside the output universe, behave deterministically, clamp inputs and
/// respect dominance of fully-fired rules. Run against both FACS engines
/// so the properties hold for the exact controllers the paper deploys.
/// Every inference path — batch, scalar and the curve oracle that samples
/// the output terms directly — must also agree bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <vector>

#include "core/flc1.hpp"
#include "core/flc2.hpp"
#include "curve_oracle.hpp"

namespace facs::fuzzy {
namespace {

using Config = std::tuple<TNorm, TNorm, SNorm, Defuzzifier>;

class EngineOperatorMatrix : public ::testing::TestWithParam<Config> {
 protected:
  EngineConfig makeConfig() const {
    const auto [conj, impl, agg, defuzz] = GetParam();
    EngineConfig cfg;
    cfg.conjunction = conj;
    cfg.implication = impl;
    cfg.aggregation = agg;
    cfg.defuzzifier = defuzz;
    cfg.resolution = 501;  // keep the matrix fast
    return cfg;
  }
};

TEST_P(EngineOperatorMatrix, Flc1OutputStaysInUnitInterval) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  for (double s : {0.0, 22.5, 60.0, 120.0}) {
    for (double a : {-180.0, -67.5, 0.0, 45.0, 180.0}) {
      for (double d : {0.0, 5.0, 10.0}) {
        const std::array<double, 3> in{s, a, d};
        const double out = engine.infer(in);
        EXPECT_GE(out, 0.0) << s << "," << a << "," << d;
        EXPECT_LE(out, 1.0) << s << "," << a << "," << d;
      }
    }
  }
}

TEST_P(EngineOperatorMatrix, Flc2OutputStaysInDecisionInterval) {
  const MamdaniEngine engine = core::buildFlc2(makeConfig());
  for (double cv : {0.0, 0.3, 0.7, 1.0}) {
    for (double r : {1.0, 5.0, 10.0}) {
      for (double cs : {0.0, 17.0, 40.0}) {
        const std::array<double, 3> in{cv, r, cs};
        const double out = engine.infer(in);
        EXPECT_GE(out, -1.0);
        EXPECT_LE(out, 1.0);
      }
    }
  }
}

TEST_P(EngineOperatorMatrix, InferenceIsDeterministic) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  const std::array<double, 3> in{33.3, -51.0, 7.7};
  const double first = engine.infer(in);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(engine.infer(in), first);
  }
}

TEST_P(EngineOperatorMatrix, InputClampingHolds) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  const std::array<double, 3> wild{500.0, -720.0, 99.0};
  const std::array<double, 3> edge{120.0, -180.0, 10.0};
  EXPECT_DOUBLE_EQ(engine.infer(wild), engine.infer(edge));
}

TEST_P(EngineOperatorMatrix, DominantRulePullsTowardItsConsequent) {
  const MamdaniEngine engine = core::buildFlc1(makeConfig());
  // Fa & St & N -> Cv9 (row 34) fires at strength 1 at the joint peak;
  // every configuration must put the output in the upper half.
  const std::array<double, 3> best{120.0, 0.0, 0.0};
  EXPECT_GT(engine.infer(best), 0.5);
  // Fa & B1 & F -> Cv1 (row 29): lower half.
  const std::array<double, 3> worst{120.0, -180.0, 10.0};
  EXPECT_LT(engine.infer(worst), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    OperatorMatrix, EngineOperatorMatrix,
    ::testing::Combine(
        ::testing::Values(TNorm::Minimum, TNorm::AlgebraicProduct,
                          TNorm::BoundedDifference),
        ::testing::Values(TNorm::Minimum, TNorm::AlgebraicProduct),
        ::testing::Values(SNorm::Maximum, SNorm::AlgebraicSum,
                          SNorm::BoundedSum),
        ::testing::Values(Defuzzifier::Centroid, Defuzzifier::Bisector,
                          Defuzzifier::MeanOfMax)));

/// The operator families the `facs` policy exposes (`ops=minmax|prod|luk`),
/// mirrored from applyOperatorFamily in core/facs.cpp.
enum class OpsFamily { MinMax, Prod, Luk };

using BatchConfig = std::tuple<OpsFamily, Defuzzifier, int>;

class BatchIdentityMatrix : public ::testing::TestWithParam<BatchConfig> {
 protected:
  EngineConfig makeConfig() const {
    const auto [family, defuzz, resolution] = GetParam();
    EngineConfig cfg;
    switch (family) {
      case OpsFamily::MinMax:
        break;
      case OpsFamily::Prod:
        cfg.conjunction = TNorm::AlgebraicProduct;
        cfg.implication = TNorm::AlgebraicProduct;
        cfg.aggregation = SNorm::AlgebraicSum;
        break;
      case OpsFamily::Luk:
        cfg.conjunction = TNorm::BoundedDifference;
        break;
    }
    cfg.defuzzifier = defuzz;
    cfg.resolution = resolution;
    return cfg;
  }
};

TEST_P(BatchIdentityMatrix, Flc2BatchIsBitIdenticalToScalar) {
  const MamdaniEngine engine = core::buildFlc2(makeConfig());

  // Commit-window shape: Cs (the shared ledger input) repeats across runs
  // of entries, exercising the fuzzification memo; Cv and R vary per entry.
  std::vector<double> inputs;
  for (double cs : {0.0, 0.0, 17.0, 17.0, 17.0, 40.0, 23.5}) {
    for (double cv : {0.05, 0.45, 0.45, 0.95}) {
      for (double r : {1.0, 6.5, 6.5, 10.0}) {
        inputs.push_back(cv);
        inputs.push_back(r);
        inputs.push_back(cs);
      }
    }
  }
  const std::size_t entries = inputs.size() / 3;
  std::vector<double> outputs(entries);
  BatchScratch scratch;
  engine.inferBatch(inputs, outputs, scratch);
  for (std::size_t i = 0; i < entries; ++i) {
    const std::array<double, 3> in{inputs[3 * i], inputs[3 * i + 1],
                                   inputs[3 * i + 2]};
    // Exact equality: memoized fuzzification and the sample-grid tables
    // reuse pure functions of bitwise-identical inputs, so the batch path
    // may never drift from a standalone infer() — nor infer() from the
    // oracle that evaluates the aggregated curve through the terms.
    const double scalar = engine.infer(in);
    EXPECT_EQ(outputs[i], scalar) << "entry " << i;
    EXPECT_EQ(curveOracle(engine, in), scalar) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsDefuzzResolution, BatchIdentityMatrix,
    ::testing::Combine(
        ::testing::Values(OpsFamily::MinMax, OpsFamily::Prod, OpsFamily::Luk),
        ::testing::Values(Defuzzifier::Centroid, Defuzzifier::Bisector,
                          Defuzzifier::MeanOfMax, Defuzzifier::SmallestOfMax,
                          Defuzzifier::LargestOfMax),
        ::testing::Values(11, 101, 1001)));

}  // namespace
}  // namespace facs::fuzzy
