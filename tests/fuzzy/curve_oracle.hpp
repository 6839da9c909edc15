#pragma once
/// \file curve_oracle.hpp
/// Reference Mamdani back half for the engine tests: rebuilds the
/// aggregated output curve from a traced inference's rule activations and
/// the output terms' own degree(), then defuzzifies it with the sampling
/// defuzzify(). The engine folds precomputed table rows instead; it must
/// agree with this oracle bit for bit.

#include <span>
#include <vector>

#include "fuzzy/defuzzify.hpp"
#include "fuzzy/engine.hpp"

namespace facs::fuzzy {

inline double curveOracle(const MamdaniEngine& engine,
                          std::span<const double> crisp_inputs) {
  const EngineConfig& cfg = engine.config();
  const LinguisticVariable& out = engine.output();

  // Per-term activation: s-norm of the strengths of the rules concluding in
  // that term, in rule order (the trace lists only rules with strength > 0).
  std::vector<double> activation(out.termCount(), 0.0);
  for (const RuleActivation& a : engine.inferTraced(crisp_inputs).activations) {
    const std::size_t t = engine.rules().rule(a.rule_index).consequent;
    activation[t] = apply(cfg.aggregation, activation[t], a.firing_strength);
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
