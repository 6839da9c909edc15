#include "core/flc1.hpp"

#include <gtest/gtest.h>

#include <array>

namespace facs::core {
namespace {

using fuzzy::MamdaniEngine;

const MamdaniEngine& engine() {
  static const MamdaniEngine e = buildFlc1();
  return e;
}

double cv(double s, double a, double d) {
  const std::array<double, 3> in{s, a, d};
  return engine().infer(in);
}

TEST(Flc1Structure, VariablesMatchPaper) {
  const MamdaniEngine& e = engine();
  ASSERT_EQ(e.inputCount(), 3u);
  EXPECT_EQ(e.input(0).name(), "S");
  EXPECT_EQ(e.input(0).universe(), (fuzzy::Interval{0.0, 120.0}));
  EXPECT_EQ(e.input(0).termCount(), 3u);  // T(S) = {Sl, M, Fa}
  EXPECT_EQ(e.input(1).name(), "A");
  EXPECT_EQ(e.input(1).universe(), (fuzzy::Interval{-180.0, 180.0}));
  EXPECT_EQ(e.input(1).termCount(), 7u);  // {B1,L1,L2,St,R1,R2,B2}
  EXPECT_EQ(e.input(2).name(), "D");
  EXPECT_EQ(e.input(2).universe(), (fuzzy::Interval{0.0, 10.0}));
  EXPECT_EQ(e.input(2).termCount(), 2u);  // {N, F}
  EXPECT_EQ(e.output().name(), "Cv");
  EXPECT_EQ(e.output().termCount(), 9u);  // Cv1..Cv9
}

TEST(Flc1Structure, RuleBaseIs42RulesAndComplete) {
  const MamdaniEngine& e = engine();
  // |T(S)| x |T(A)| x |T(D)| = 3 * 7 * 2 = 42 (paper Section 3.1).
  EXPECT_EQ(e.rules().size(), 42u);
  const fuzzy::RuleBaseReport report = e.rules().validate(e.inputs());
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.uncovered.empty());
  EXPECT_TRUE(report.conflicts.empty());
}

TEST(Flc1Structure, RulesMatchTable1RowByRow) {
  const MamdaniEngine& e = engine();
  const auto& table = frb1Table();
  ASSERT_EQ(e.rules().size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const fuzzy::Rule& rule = e.rules().rule(i);
    EXPECT_EQ(e.input(0).term(rule.antecedent[0]).name(), table[i].s)
        << "rule " << i;
    EXPECT_EQ(e.input(1).term(rule.antecedent[1]).name(), table[i].a)
        << "rule " << i;
    EXPECT_EQ(e.input(2).term(rule.antecedent[2]).name(), table[i].d)
        << "rule " << i;
    EXPECT_EQ(e.output().term(rule.consequent).name(), table[i].cv)
        << "rule " << i;
  }
}

TEST(Flc1Structure, InputPartitionsCoverUniverses) {
  const MamdaniEngine& e = engine();
  for (std::size_t i = 0; i < e.inputCount(); ++i) {
    EXPECT_TRUE(e.input(i).covers()) << e.input(i).name();
  }
  EXPECT_TRUE(e.output().covers());
}

TEST(Flc1Behaviour, FastStraightIsBestPrediction) {
  // Rules 34/35: Fa & St -> Cv9 for both N and F.
  EXPECT_GT(cv(100.0, 0.0, 1.0), 0.85);
  EXPECT_GT(cv(100.0, 0.0, 9.0), 0.85);
}

TEST(Flc1Behaviour, MovingAwayIsWorstPrediction) {
  // B1/B2 rows: moving away from the BS earns Cv1..Cv3.
  EXPECT_LT(cv(100.0, 170.0, 9.0), 0.2);
  EXPECT_LT(cv(100.0, -170.0, 9.0), 0.2);
  EXPECT_LT(cv(10.0, 170.0, 9.0), 0.3);
}

TEST(Flc1Behaviour, SlowUsersGetLowerCvThanFastWhenHeadingStraightFar) {
  // Sl & St & F -> Cv3 vs Fa & St & F -> Cv9.
  const double slow = cv(5.0, 0.0, 9.0);
  const double fast = cv(100.0, 0.0, 9.0);
  EXPECT_LT(slow + 0.3, fast);
}

TEST(Flc1Behaviour, SymmetricInAngleByTable) {
  // Table 1 is left/right symmetric (L1<->R1 rows differ only via R2/L2
  // asymmetries at a few spots; the mirrored pairs used here are equal).
  EXPECT_NEAR(cv(5.0, -90.0, 2.0), cv(5.0, 90.0, 2.0), 0.02);
  EXPECT_NEAR(cv(45.0, -45.0, 2.0), cv(45.0, 45.0, 2.0), 1e-9);
  EXPECT_NEAR(cv(100.0, -45.0, 8.0), cv(100.0, 45.0, 8.0), 1e-9);
}

TEST(Flc1Behaviour, OutputAlwaysWithinUnitInterval) {
  for (double s = 0.0; s <= 120.0; s += 12.0) {
    for (double a = -180.0; a <= 180.0; a += 20.0) {
      for (double d = 0.0; d <= 10.0; d += 2.0) {
        const double out = cv(s, a, d);
        EXPECT_GE(out, 0.0) << s << "," << a << "," << d;
        EXPECT_LE(out, 1.0) << s << "," << a << "," << d;
      }
    }
  }
}

TEST(Flc1Behaviour, NearBeatsFarForSlowStraightUsers) {
  // Sl & St & N -> Cv9 but Sl & St & F -> Cv3: near users are predictable.
  EXPECT_GT(cv(5.0, 0.0, 0.5), cv(5.0, 0.0, 9.5));
}

TEST(Flc1Behaviour, AngleDegradesPredictionMonotonically) {
  // At fixed mid speed / near distance, Cv should not increase as the
  // heading deviation grows from 0 to 180 degrees.
  const double speeds[] = {5.0, 30.0, 100.0};
  for (const double s : speeds) {
    double prev = 2.0;
    for (double a = 0.0; a <= 180.0; a += 15.0) {
      const double out = cv(s, a, 1.0);
      EXPECT_LE(out, prev + 0.05) << "s=" << s << " angle=" << a;
      prev = out;
    }
  }
}

/// Paper-text anchor points: the qualitative claims of Section 4 hold as
/// properties of the raw controller.
struct SpeedCase {
  double speed;
  double expected_lo;
  double expected_hi;
};

class Flc1SpeedSweep : public ::testing::TestWithParam<SpeedCase> {};

TEST_P(Flc1SpeedSweep, StraightNearCvBands) {
  const auto& p = GetParam();
  const double out = cv(p.speed, 0.0, 1.0);
  EXPECT_GE(out, p.expected_lo) << "speed " << p.speed;
  EXPECT_LE(out, p.expected_hi) << "speed " << p.speed;
}

INSTANTIATE_TEST_SUITE_P(
    Bands, Flc1SpeedSweep,
    ::testing::Values(SpeedCase{4.0, 0.7, 1.0},    // Sl & St & N -> Cv9
                      SpeedCase{30.0, 0.7, 1.0},   // M  & St & N -> Cv9
                      SpeedCase{60.0, 0.7, 1.0},   // Fa & St & N -> Cv9
                      SpeedCase{120.0, 0.7, 1.0}));

TEST(Flc1Config, HonoursAlternativeOperators) {
  fuzzy::EngineConfig cfg;
  cfg.conjunction = fuzzy::TNorm::AlgebraicProduct;
  cfg.implication = fuzzy::TNorm::AlgebraicProduct;
  cfg.defuzzifier = fuzzy::Defuzzifier::MeanOfMax;
  const MamdaniEngine e = buildFlc1(cfg);
  const std::array<double, 3> in{100.0, 0.0, 1.0};
  const double out = e.infer(in);
  EXPECT_GE(out, 0.9);  // MOM on the Cv9 plateau
}

}  // namespace
}  // namespace facs::core
