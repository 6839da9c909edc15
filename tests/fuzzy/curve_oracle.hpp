#pragma once
/// \file curve_oracle.hpp
/// Reference Mamdani inference for the engine tests: fires every rule of
/// the rule base, rebuilds the aggregated output curve from the output
/// terms' own degree() at every sample, and defuzzifies it with the
/// sampling defuzzify(). The engine folds precomputed table rows over each
/// term's support instead; it must agree with this oracle bit for bit.

#include <span>
#include <vector>

#include "fuzzy/defuzzify.hpp"
#include "fuzzy/engine.hpp"

namespace facs::fuzzy {

/// The firing strength of every rule, by folding every antecedent of every
/// rule in rule order.
inline std::vector<double> allRuleStrengths(
    const MamdaniEngine& engine, std::span<const double> crisp_inputs) {
  std::vector<FuzzyVector> fuzzified;
  for (std::size_t v = 0; v < engine.inputCount(); ++v) {
    fuzzified.push_back(engine.input(v).fuzzify(crisp_inputs[v]));
  }
  std::vector<double> strengths;
  for (const Rule& r : engine.rules().rules()) {
    double strength = 1.0;
    for (std::size_t v = 0; v < r.antecedent.size(); ++v) {
      if (r.antecedent[v] == kAnyTerm) continue;
      strength = apply(engine.config().conjunction, strength,
                       fuzzified[v][r.antecedent[v]]);
      if (strength == 0.0) break;
    }
    strengths.push_back(strength * r.weight);
  }
  return strengths;
}

inline double curveOracle(const MamdaniEngine& engine,
                          std::span<const double> crisp_inputs) {
  const EngineConfig& cfg = engine.config();
  const LinguisticVariable& out = engine.output();

  // Per-term activation: s-norm of the strengths of the rules concluding in
  // that term, in rule order.
  const std::vector<double> strengths = allRuleStrengths(engine, crisp_inputs);
  std::vector<double> activation(out.termCount(), 0.0);
  for (std::size_t i = 0; i < strengths.size(); ++i) {
    if (strengths[i] <= 0.0) continue;
    const std::size_t t = engine.rules().rule(i).consequent;
    activation[t] = apply(cfg.aggregation, activation[t], strengths[i]);
  }

  const auto curve = [&](double x) {
    double mu = 0.0;
    for (std::size_t t = 0; t < activation.size(); ++t) {
      if (activation[t] <= 0.0) continue;
      mu = apply(cfg.aggregation, mu,
                 apply(cfg.implication, activation[t], out.term(t).degree(x)));
    }
    return mu;
  };
  return defuzzify(cfg.defuzzifier, curve, out.universe(), cfg.resolution);
}

}  // namespace facs::fuzzy
