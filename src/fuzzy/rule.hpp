#pragma once
/// \file rule.hpp
/// Fuzzy IF-THEN rules and rule bases (the paper's FRBs, Tables 1 and 2).
///
/// A rule has the paper's form
///     IF "conditions" THEN "control action"
/// where the conditions are a conjunction of one term per input variable
/// (wildcards allowed) and the control action selects one output term.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace facs::fuzzy {

class LinguisticVariable;

/// Sentinel meaning "this input variable does not constrain the rule".
inline constexpr std::size_t kAnyTerm = static_cast<std::size_t>(-1);

/// One IF-THEN rule over a fixed roster of input variables.
struct Rule {
  /// Term index per input variable (position i refers to input variable i);
  /// kAnyTerm entries are ignored during matching.
  std::vector<std::size_t> antecedent;
  /// Index of the output term this rule activates.
  std::size_t consequent = 0;
  /// Rule weight in (0, 1]; scales the firing strength.
  double weight = 1.0;
};

/// Result of validating a rule base against its variables.
struct RuleBaseReport {
  bool ok = true;
  /// Antecedent combinations (over the full cartesian product of input term
  /// sets) matched by no rule. The paper's FRBs are complete: 3x7x2 = 42 and
  /// 3x3x3 = 27 rules, one per combination.
  std::vector<std::string> uncovered;
  /// Pairs of rule indices with identical antecedents but different
  /// consequents (ambiguous control actions).
  std::vector<std::pair<std::size_t, std::size_t>> conflicts;
};

/// An ordered collection of rules tied to a roster of input variables and
/// one output variable (both owned by the engine; the rule base stores only
/// indices, keeping it cheap to copy). Rules enter only by name, so every
/// stored index is in range and every weight in (0, 1].
class RuleBase {
 public:
  RuleBase() = default;

  /// Adds a rule by term names, resolved against the variables.
  /// Use "*" (or "any") as a wildcard antecedent entry.
  /// \throws std::invalid_argument on unknown names or arity mismatch.
  void add(const std::vector<LinguisticVariable>& inputs,
           const LinguisticVariable& output,
           const std::vector<std::string>& antecedent_terms,
           const std::string& consequent_term, double weight = 1.0);

  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }
  [[nodiscard]] const Rule& rule(std::size_t i) const { return rules_.at(i); }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept {
    return rules_;
  }

  /// Exhaustive structural validation against the given variables:
  /// completeness over the cartesian product and conflicts.
  [[nodiscard]] RuleBaseReport validate(
      const std::vector<LinguisticVariable>& inputs) const;

 private:
  std::vector<Rule> rules_;
};

}  // namespace facs::fuzzy
