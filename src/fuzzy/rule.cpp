#include "fuzzy/rule.hpp"

#include <sstream>
#include <stdexcept>

#include "fuzzy/variable.hpp"

namespace facs::fuzzy {

void RuleBase::add(const std::vector<LinguisticVariable>& inputs,
                   const LinguisticVariable& output,
                   const std::vector<std::string>& antecedent_terms,
                   const std::string& consequent_term, double weight) {
  if (antecedent_terms.size() != inputs.size()) {
    std::ostringstream os;
    os << "rule arity mismatch: " << antecedent_terms.size()
       << " antecedent terms for " << inputs.size() << " input variables";
    throw std::invalid_argument(os.str());
  }
  if (!(weight > 0.0) || weight > 1.0) {
    throw std::invalid_argument("rule weight must be in (0, 1]");
  }

  Rule r;
  r.weight = weight;
  r.antecedent.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string& name = antecedent_terms[i];
    if (name == "*" || name == "any") {
      r.antecedent.push_back(kAnyTerm);
      continue;
    }
    const auto idx = inputs[i].termIndex(name);
    if (!idx) {
      throw std::invalid_argument("unknown term '" + name + "' for variable '" +
                                  inputs[i].name() + "'");
    }
    r.antecedent.push_back(*idx);
  }

  const auto out_idx = output.termIndex(consequent_term);
  if (!out_idx) {
    throw std::invalid_argument("unknown term '" + consequent_term +
                                "' for output variable '" + output.name() +
                                "'");
  }
  r.consequent = *out_idx;
  rules_.push_back(std::move(r));
}

namespace {

/// Walks the cartesian product of input term sets, invoking fn(combo).
template <typename Fn>
void forEachCombination(const std::vector<LinguisticVariable>& inputs,
                        Fn&& fn) {
  std::vector<std::size_t> combo(inputs.size(), 0);
  while (true) {
    fn(combo);
    std::size_t pos = 0;
    while (pos < combo.size()) {
      if (++combo[pos] < inputs[pos].termCount()) break;
      combo[pos] = 0;
      ++pos;
    }
    if (pos == combo.size()) return;
  }
}

bool matches(const Rule& r, const std::vector<std::size_t>& combo) {
  for (std::size_t i = 0; i < combo.size(); ++i) {
    if (r.antecedent[i] != kAnyTerm && r.antecedent[i] != combo[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

RuleBaseReport RuleBase::validate(
    const std::vector<LinguisticVariable>& inputs) const {
  RuleBaseReport report;

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    for (std::size_t j = i + 1; j < rules_.size(); ++j) {
      if (rules_[i].antecedent == rules_[j].antecedent &&
          rules_[i].consequent != rules_[j].consequent) {
        report.conflicts.emplace_back(i, j);
      }
    }
  }

  if (!inputs.empty()) {
    forEachCombination(inputs, [&](const std::vector<std::size_t>& combo) {
      for (const Rule& r : rules_) {
        if (matches(r, combo)) return;
      }
      std::ostringstream os;
      for (std::size_t v = 0; v < combo.size(); ++v) {
        if (v > 0) os << " & ";
        os << inputs[v].name() << "=" << inputs[v].term(combo[v]).name();
      }
      report.uncovered.push_back(os.str());
    });
  }

  report.ok = report.uncovered.empty() && report.conflicts.empty();
  return report;
}

}  // namespace facs::fuzzy
