#include "fuzzy/rule.hpp"

#include <gtest/gtest.h>

#include "fuzzy/variable.hpp"

namespace facs::fuzzy {
namespace {

std::vector<LinguisticVariable> makeInputs() {
  LinguisticVariable a{"a", Interval{0.0, 1.0}};
  a.addTerm("lo", makeTriangle(0.0, 0.0, 1.0));
  a.addTerm("hi", makeTriangle(1.0, 1.0, 0.0));
  LinguisticVariable b{"b", Interval{0.0, 1.0}};
  b.addTerm("x", makeTriangle(0.0, 0.0, 1.0));
  b.addTerm("y", makeTriangle(0.5, 0.5, 0.5));
  b.addTerm("z", makeTriangle(1.0, 1.0, 0.0));
  std::vector<LinguisticVariable> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}

LinguisticVariable makeOutput() {
  LinguisticVariable o{"o", Interval{0.0, 1.0}};
  o.addTerm("no", makeTriangle(0.0, 0.0, 1.0));
  o.addTerm("yes", makeTriangle(1.0, 1.0, 0.0));
  return o;
}

TEST(RuleBase, AddByNameResolvesIndices) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"lo", "y"}, "yes");
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb.rule(0).antecedent, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(rb.rule(0).consequent, 1u);
  EXPECT_DOUBLE_EQ(rb.rule(0).weight, 1.0);
}

TEST(RuleBase, WildcardAntecedent) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"*", "z"}, "no", 0.5);
  EXPECT_EQ(rb.rule(0).antecedent[0], kAnyTerm);
  EXPECT_EQ(rb.rule(0).antecedent[1], 2u);
  EXPECT_DOUBLE_EQ(rb.rule(0).weight, 0.5);
}

TEST(RuleBase, AddRejectsBadInput) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  EXPECT_THROW(rb.add(inputs, output, {"lo"}, "yes"), std::invalid_argument);
  EXPECT_THROW(rb.add(inputs, output, {"lo", "nope"}, "yes"),
               std::invalid_argument);
  EXPECT_THROW(rb.add(inputs, output, {"lo", "y"}, "nope"),
               std::invalid_argument);
  EXPECT_THROW(rb.add(inputs, output, {"lo", "y"}, "yes", 0.0),
               std::invalid_argument);
  EXPECT_THROW(rb.add(inputs, output, {"lo", "y"}, "yes", 1.5),
               std::invalid_argument);
}

TEST(RuleBase, ValidateFlagsUncoveredCombinations) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"lo", "x"}, "yes");
  const RuleBaseReport report = rb.validate(inputs);
  EXPECT_FALSE(report.ok);
  // 2 x 3 = 6 combinations, one covered.
  EXPECT_EQ(report.uncovered.size(), 5u);
  EXPECT_TRUE(report.conflicts.empty());
}

TEST(RuleBase, WildcardCoversWholeAxis) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"*", "x"}, "yes");
  rb.add(inputs, output, {"*", "y"}, "yes");
  rb.add(inputs, output, {"*", "z"}, "no");
  const RuleBaseReport report = rb.validate(inputs);
  EXPECT_TRUE(report.ok) << "uncovered: " << report.uncovered.size();
}

TEST(RuleBase, ValidateFlagsConflicts) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"lo", "x"}, "yes");
  rb.add(inputs, output, {"lo", "x"}, "no");  // same antecedent, different action
  const RuleBaseReport report = rb.validate(inputs);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.conflicts.size(), 1u);
  EXPECT_EQ(report.conflicts[0], (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(RuleBase, DuplicateIdenticalRulesAreNotConflicts) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"lo", "x"}, "yes");
  rb.add(inputs, output, {"lo", "x"}, "yes");
  EXPECT_TRUE(rb.validate(inputs).conflicts.empty());
}

TEST(RuleBase, UncoveredMessagesNameTerms) {
  const auto inputs = makeInputs();
  const auto output = makeOutput();
  RuleBase rb;
  rb.add(inputs, output, {"lo", "x"}, "yes");
  rb.add(inputs, output, {"lo", "y"}, "yes");
  rb.add(inputs, output, {"lo", "z"}, "yes");
  rb.add(inputs, output, {"hi", "x"}, "yes");
  rb.add(inputs, output, {"hi", "y"}, "yes");
  const RuleBaseReport report = rb.validate(inputs);
  ASSERT_EQ(report.uncovered.size(), 1u);
  EXPECT_EQ(report.uncovered[0], "a=hi & b=z");
}

}  // namespace
}  // namespace facs::fuzzy
