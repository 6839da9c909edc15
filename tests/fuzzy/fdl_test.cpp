#include "fuzzy/fdl.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string_view>

namespace facs::fuzzy {
namespace {

constexpr const char* kTipper = R"(
# A small controller in FDL.
engine tipper
conjunction min
implication min
aggregation max
defuzzifier centroid
resolution 1001

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

rule poor * => low
rule good * => medium
rule great bad => medium
rule great tasty => high weight 0.9
)";

TEST(Fdl, ParsesCompleteEngine) {
  const MamdaniEngine e = parseFdl(kTipper);
  EXPECT_EQ(e.name(), "tipper");
  EXPECT_EQ(e.inputCount(), 2u);
  EXPECT_EQ(e.input(0).name(), "service");
  EXPECT_EQ(e.input(1).termCount(), 2u);
  EXPECT_EQ(e.output().name(), "tip");
  EXPECT_EQ(e.rules().size(), 4u);
  EXPECT_DOUBLE_EQ(e.rules().rule(3).weight, 0.9);
  EXPECT_EQ(e.rules().rule(0).antecedent[1], kAnyTerm);
}

TEST(Fdl, ParsedEngineInfers) {
  const MamdaniEngine e = parseFdl(kTipper);
  const std::array<double, 2> in{0.0, 5.0};
  EXPECT_NEAR(e.infer(in), 5.0, 0.2);
}

TEST(Fdl, ParsesFromStream) {
  std::istringstream in{kTipper};
  const MamdaniEngine e = parseFdl(in);
  EXPECT_EQ(e.name(), "tipper");
}

TEST(Fdl, RoundTripPreservesBehaviour) {
  const MamdaniEngine original = parseFdl(kTipper);
  const std::string serialized = toFdl(original);
  const MamdaniEngine reparsed = parseFdl(serialized);

  for (double s = 0.0; s <= 10.0; s += 0.5) {
    for (double f = 0.0; f <= 10.0; f += 1.0) {
      const std::array<double, 2> in{s, f};
      EXPECT_DOUBLE_EQ(original.infer(in), reparsed.infer(in))
          << "s=" << s << " f=" << f;
    }
  }
}

TEST(Fdl, OperatorKeywordsParse) {
  const MamdaniEngine e = parseFdl(R"(
engine ops
conjunction prod
implication lukasiewicz
aggregation probor
defuzzifier mom
resolution 501
input x 0 1
  term lo tri 0 0 1
output y 0 1
  term lo tri 0 0 1
rule lo => lo
)");
  EXPECT_EQ(e.config().conjunction, TNorm::AlgebraicProduct);
  EXPECT_EQ(e.config().implication, TNorm::BoundedDifference);
  EXPECT_EQ(e.config().aggregation, SNorm::AlgebraicSum);
  EXPECT_EQ(e.config().defuzzifier, Defuzzifier::MeanOfMax);
  EXPECT_EQ(e.config().resolution, 501);
}

struct BadDoc {
  const char* name;
  const char* text;
  int expected_line;
};

class FdlErrors : public ::testing::TestWithParam<BadDoc> {};

TEST_P(FdlErrors, ReportsLineNumber) {
  try {
    (void)parseFdl(GetParam().text);
    FAIL() << "expected FdlError for " << GetParam().name;
  } catch (const FdlError& e) {
    EXPECT_EQ(e.line(), GetParam().expected_line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, FdlErrors,
    ::testing::Values(
        BadDoc{"unknown_keyword", "bogus x\n", 1},
        BadDoc{"term_before_variable", "engine e\nterm a tri 0 1 1\n", 2},
        BadDoc{"bad_number", "engine e\ninput x 0 ten\n", 2},
        BadDoc{"bad_shape", "engine e\ninput x 0 1\nterm a blob 1\n", 3},
        BadDoc{"tri_arity", "engine e\ninput x 0 1\nterm a tri 1\n", 3},
        BadDoc{"rule_missing_arrow",
               "engine e\ninput x 0 1\nterm a tri 0 0 1\noutput y 0 1\nterm "
               "b tri 0 0 1\nrule a b\n",
               6},
        // Rules resolve only when the whole document is read; a fault
        // still names the rule's own line (a conflict: the later rule's).
        BadDoc{"rule_bad_weight",
               "engine e\ninput x 0 1\nterm lo tri 0 0 1\nterm hi tri 1 1 0\n"
               "output y 0 1\nterm lo tri 0 0 1\nrule lo => lo\n"
               "rule hi => lo weight 1.5\n",
               8},
        BadDoc{"rule_conflict",
               "engine e\ninput x 0 1\nterm lo tri 0 0 1\noutput y 0 1\n"
               "term lo tri 0 0 1\nterm hi tri 1 1 0\nrule lo => lo\n"
               "rule lo => hi\n\n# end\n",
               8},
        BadDoc{"unknown_tnorm", "conjunction nope\n", 1},
        BadDoc{"unknown_defuzz", "defuzzifier nope\n", 1},
        // The resolution is an integer in [2, kMaxResolution], checked on
        // its own line before any cast or table build.
        BadDoc{"resolution_nan", "engine e\nresolution nan\n", 2},
        BadDoc{"resolution_inf", "engine e\nresolution inf\n", 2},
        BadDoc{"resolution_fraction", "engine e\nresolution 2.7\n", 2},
        BadDoc{"resolution_too_small", "engine e\nresolution 1\n", 2},
        BadDoc{"resolution_too_large", "engine e\n\nresolution 100002\n", 3},
        BadDoc{"resolution_huge", "engine e\nresolution 1e300\n", 2}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

TEST(Fdl, MissingEngineOrOutputFails) {
  EXPECT_THROW((void)parseFdl("input x 0 1\nterm a tri 0 0 1\n"), FdlError);
  EXPECT_THROW((void)parseFdl("engine e\ninput x 0 1\nterm a tri 0 0 1\n"),
               FdlError);
}

/// Line of the FdlError \p doc raises; 0 when it parses.
int errorLine(std::string_view doc) {
  try {
    (void)parseFdl(doc);
  } catch (const FdlError& e) {
    return e.line();
  }
  return 0;
}

TEST(Fdl, RuleWithUnknownTermFailsAtBuild) {
  // Rule names resolve only when the parsed spec becomes an engine, after
  // the whole document is read; the error still names the rule's line.
  EXPECT_EQ(errorLine(R"(
engine e
input x 0 1
  term lo tri 0 0 1
output y 0 1
  term lo tri 0 0 1
rule nope => lo
)"),
            7);
}

TEST(Fdl, StructuralDefectsRaiseFdlError) {
  // A document-wide defect such as an empty rule base has no line of its
  // own and is reported at line 1.
  EXPECT_EQ(errorLine("engine e\ninput x 0 1\nterm lo tri 0 0 1\n"
                      "output y 0 1\nterm lo tri 0 0 1\n"),
            1);
}

TEST(Fdl, SmoothShapesParseAndRoundTrip) {
  const MamdaniEngine e = parseFdl(R"(
engine smooth
input x 0 10
  term low sigmoid 3 -2
  term mid gauss 5 1.5
  term high bell 8 1.5 3
output y 0 1
  term no tri 0 0 1
  term yes tri 1 1 0
rule low => no
rule mid => yes
rule high => yes
)");
  EXPECT_EQ(e.input(0).termCount(), 3u);
  EXPECT_NEAR(e.input(0).term(1).degree(5.0), 1.0, 1e-12);   // gauss peak
  EXPECT_NEAR(e.input(0).term(2).degree(9.5), 0.5, 1e-12);   // bell crossover
  EXPECT_NEAR(e.input(0).term(0).degree(3.0), 0.5, 1e-12);   // sigmoid infl.

  const MamdaniEngine round = parseFdl(toFdl(e));
  for (double x = 0.0; x <= 10.0; x += 0.5) {
    const std::array<double, 1> in{x};
    EXPECT_DOUBLE_EQ(round.infer(in), e.infer(in)) << "x=" << x;
  }
}

TEST(Fdl, SmoothShapeAritiesChecked) {
  EXPECT_THROW((void)parseFdl("engine e\ninput x 0 1\nterm a gauss 1\n"),
               FdlError);
  EXPECT_THROW((void)parseFdl("engine e\ninput x 0 1\nterm a bell 1 2\n"),
               FdlError);
  EXPECT_THROW((void)parseFdl("engine e\ninput x 0 1\nterm a sigmoid 1\n"),
               FdlError);
}

TEST(Fdl, CommentsAndBlankLinesIgnored) {
  const MamdaniEngine e = parseFdl(
      "# header\n\nengine e # trailing comment\ninput x 0 1\nterm lo tri 0 0 "
      "1\noutput y 0 1\nterm lo tri 0 0 1\n\nrule lo => lo\n");
  EXPECT_EQ(e.rules().size(), 1u);
}

}  // namespace
}  // namespace facs::fuzzy
