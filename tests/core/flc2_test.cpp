#include "core/flc2.hpp"

#include <gtest/gtest.h>

#include <array>

namespace facs::core {
namespace {

using fuzzy::MamdaniEngine;

const MamdaniEngine& engine() {
  static const MamdaniEngine e = buildFlc2();
  return e;
}

double ar(double cv, double r, double cs) {
  const std::array<double, 3> in{cv, r, cs};
  return engine().infer(in);
}

TEST(Flc2Structure, VariablesMatchPaper) {
  const MamdaniEngine& e = engine();
  ASSERT_EQ(e.inputCount(), 3u);
  EXPECT_EQ(e.input(0).name(), "Cv");
  EXPECT_EQ(e.input(0).termCount(), 3u);  // {B, N, G}
  EXPECT_EQ(e.input(1).name(), "R");
  EXPECT_EQ(e.input(1).universe(), (fuzzy::Interval{0.0, 10.0}));
  EXPECT_EQ(e.input(1).termCount(), 3u);  // {T, Vo, Vi}
  EXPECT_EQ(e.input(2).name(), "Cs");
  EXPECT_EQ(e.input(2).universe(), (fuzzy::Interval{0.0, 40.0}));
  EXPECT_EQ(e.input(2).termCount(), 3u);  // {S, M, F}
  EXPECT_EQ(e.output().name(), "AR");
  EXPECT_EQ(e.output().universe(), (fuzzy::Interval{-1.0, 1.0}));
  EXPECT_EQ(e.output().termCount(), 5u);  // {R, WR, NRNA, WA, A}
}

TEST(Flc2Structure, RuleBaseIs27RulesAndComplete) {
  const MamdaniEngine& e = engine();
  EXPECT_EQ(e.rules().size(), 27u);  // 3 x 3 x 3 (paper Section 3.2)
  const fuzzy::RuleBaseReport report = e.rules().validate(e.inputs());
  EXPECT_TRUE(report.ok);
}

TEST(Flc2Structure, RulesMatchTable2RowByRow) {
  const MamdaniEngine& e = engine();
  const auto& table = frb2Table();
  ASSERT_EQ(e.rules().size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const fuzzy::Rule& rule = e.rules().rule(i);
    EXPECT_EQ(e.input(0).term(rule.antecedent[0]).name(), table[i].cv)
        << "rule " << i;
    EXPECT_EQ(e.input(1).term(rule.antecedent[1]).name(), table[i].r)
        << "rule " << i;
    EXPECT_EQ(e.input(2).term(rule.antecedent[2]).name(), table[i].cs)
        << "rule " << i;
    EXPECT_EQ(e.output().term(rule.consequent).name(), table[i].ar)
        << "rule " << i;
  }
}

TEST(Flc2Behaviour, EmptySystemAcceptsEverything) {
  // Cs = 0 (Small): every Table 2 row with Cs=S is A or WA.
  EXPECT_GT(ar(0.9, 1.0, 0.0), 0.5);   // good user, text
  EXPECT_GT(ar(0.9, 5.0, 0.0), 0.5);   // good user, voice
  EXPECT_GT(ar(0.9, 10.0, 0.0), 0.5);  // good user, video
  EXPECT_GT(ar(0.1, 1.0, 0.0), 0.5);   // even bad prediction, text -> A
  EXPECT_GT(ar(0.1, 10.0, 0.0), 0.0);  // bad prediction, video -> WA
}

TEST(Flc2Behaviour, FullSystemNeverAccepts) {
  // Cs = 40 (Full): no Table 2 row with Cs=F concludes A or WA.
  for (double cv = 0.05; cv <= 1.0; cv += 0.1) {
    for (double r : {1.0, 5.0, 10.0}) {
      EXPECT_LE(ar(cv, r, 40.0), 0.05) << "cv=" << cv << " r=" << r;
    }
  }
}

TEST(Flc2Behaviour, GoodVideoOnFullSystemIsHardReject) {
  // G & Vi & F -> R: the strongest rejection in the table protects the
  // ongoing calls from a 10 BU grab even for a well-predicted user.
  EXPECT_LT(ar(1.0, 10.0, 40.0), -0.5);
}

TEST(Flc2Behaviour, BetterPredictionNeverHurtsMuch) {
  // Table 2 is not strictly monotone in Cv (e.g. N&Vo&F -> NRNA but
  // G&Vo&F -> WR protects ongoing calls from confident heavy users), and
  // Mamdani centroids wobble a few hundredths as term activations cross.
  // The defensible property: improving Cv never costs more than that
  // wobble, pointwise along the sweep.
  for (double r : {1.0, 5.0, 10.0}) {
    for (double cs : {5.0, 15.0, 25.0}) {
      double prev = -2.0;
      for (double cv = 0.0; cv <= 1.0; cv += 0.05) {
        const double out = ar(cv, r, cs);
        EXPECT_GE(out + 0.06, prev)
            << "cv=" << cv << " r=" << r << " cs=" << cs;
        prev = out;
      }
    }
  }
}

TEST(Flc2Behaviour, MoreOccupancyNeverHelpsMuch) {
  for (double r : {1.0, 5.0, 10.0}) {
    for (double cv : {0.1, 0.5, 0.9}) {
      double prev = 2.0;
      for (double cs = 0.0; cs <= 40.0; cs += 2.0) {
        const double out = ar(cv, r, cs);
        EXPECT_LE(out - 0.06, prev)
            << "cv=" << cv << " r=" << r << " cs=" << cs;
        prev = out;
      }
    }
  }
}

TEST(Flc2Behaviour, EndpointsDominateAcrossOccupancy) {
  // The coarse-grained claim behind both sweeps: an empty system is always
  // at least as welcoming as a full one, for any user and class.
  for (double r : {1.0, 5.0, 10.0}) {
    for (double cv = 0.0; cv <= 1.0; cv += 0.1) {
      EXPECT_GT(ar(cv, r, 0.0), ar(cv, r, 40.0) + 0.2)
          << "cv=" << cv << " r=" << r;
    }
  }
}

TEST(Flc2Behaviour, MidOccupancyGoodUserAcceptedBadUserNeutral) {
  // Cs=M rows: G -> A for all classes, B/N -> NRNA.
  EXPECT_GT(ar(1.0, 1.0, 20.0), 0.5);
  EXPECT_GT(ar(1.0, 5.0, 20.0), 0.5);
  EXPECT_NEAR(ar(0.0, 5.0, 20.0), 0.0, 0.15);
}

TEST(Flc2Behaviour, OutputAlwaysWithinDecisionUniverse) {
  for (double cv = 0.0; cv <= 1.0; cv += 0.125) {
    for (double r = 0.0; r <= 10.0; r += 1.0) {
      for (double cs = 0.0; cs <= 40.0; cs += 5.0) {
        const double out = ar(cv, r, cs);
        EXPECT_GE(out, -1.0);
        EXPECT_LE(out, 1.0);
      }
    }
  }
}

TEST(Flc2Behaviour, InputsClampLikeTheirUniverses) {
  EXPECT_DOUBLE_EQ(ar(1.4, 10.0, 40.0), ar(1.0, 10.0, 40.0));
  EXPECT_DOUBLE_EQ(ar(0.5, 12.0, 40.0), ar(0.5, 10.0, 40.0));
  EXPECT_DOUBLE_EQ(ar(0.5, 5.0, 55.0), ar(0.5, 5.0, 40.0));
}

}  // namespace
}  // namespace facs::core
