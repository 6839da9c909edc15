#include "core/flc2.hpp"

namespace facs::core {

using fuzzy::EngineSpec;
using fuzzy::Interval;
using fuzzy::LinguisticVariable;
using fuzzy::makeTrapezoid;
using fuzzy::makeTriangle;
using fuzzy::MamdaniEngine;
using fuzzy::RuleSpec;

const std::array<Frb2Row, 27>& frb2Table() noexcept {
  // Table 2 of the paper, rows 0-26.
  static const std::array<Frb2Row, 27> kTable{{
      {"B", "T", "S", "A"},     {"B", "T", "M", "NRNA"},
      {"B", "T", "F", "NRNA"},  {"B", "Vo", "S", "A"},
      {"B", "Vo", "M", "NRNA"}, {"B", "Vo", "F", "WR"},
      {"B", "Vi", "S", "WA"},   {"B", "Vi", "M", "NRNA"},
      {"B", "Vi", "F", "WR"},   {"N", "T", "S", "A"},
      {"N", "T", "M", "NRNA"},  {"N", "T", "F", "NRNA"},
      {"N", "Vo", "S", "A"},    {"N", "Vo", "M", "NRNA"},
      {"N", "Vo", "F", "NRNA"}, {"N", "Vi", "S", "WA"},
      {"N", "Vi", "M", "NRNA"}, {"N", "Vi", "F", "NRNA"},
      {"G", "T", "S", "A"},     {"G", "T", "M", "A"},
      {"G", "T", "F", "NRNA"},  {"G", "Vo", "S", "A"},
      {"G", "Vo", "M", "A"},    {"G", "Vo", "F", "WR"},
      {"G", "Vi", "S", "A"},    {"G", "Vi", "M", "A"},
      {"G", "Vi", "F", "R"},
  }};
  return kTable;
}

MamdaniEngine buildFlc2(fuzzy::EngineConfig config) {
  // Cv — Fig. 6(a): Bad / Normal / Good over [0, 1].
  LinguisticVariable cv{"Cv", Interval{0.0, 1.0}};
  cv.addTerm("B", makeTriangle(0.0, 0.0, 0.5));
  cv.addTerm("N", makeTriangle(0.5, 0.5, 0.5));
  cv.addTerm("G", makeTriangle(1.0, 0.5, 0.0));

  // R — Fig. 6(b): Text / Voice / Video over [0, 10] BU.
  LinguisticVariable request{"R", Interval{kRequestMinBu, kRequestMaxBu}};
  request.addTerm("T", makeTriangle(0.0, 0.0, 5.0));
  request.addTerm("Vo", makeTriangle(5.0, 5.0, 5.0));
  request.addTerm("Vi", makeTriangle(10.0, 5.0, 0.0));

  // Cs — Fig. 6(c): Small / Middle / Full over [0, 40] BU.
  LinguisticVariable counter{"Cs", Interval{kCounterMinBu, kCounterMaxBu}};
  counter.addTerm("S", makeTriangle(0.0, 0.0, 20.0));
  counter.addTerm("M", makeTriangle(20.0, 20.0, 20.0));
  counter.addTerm("F", makeTriangle(40.0, 20.0, 0.0));

  // A/R — Fig. 6(d): five terms over [-1, 1]; R/A are the trapezoidal
  // shoulders, WR/NRNA/WA triangles at -0.5 / 0 / +0.5.
  LinguisticVariable decision{"AR", Interval{kDecisionMin, kDecisionMax}};
  decision.addTerm("R", makeTrapezoid(-1.0, -1.0, 0.0, 0.5));
  decision.addTerm("WR", makeTriangle(-0.5, 0.5, 0.5));
  decision.addTerm("NRNA", makeTriangle(0.0, 0.5, 0.5));
  decision.addTerm("WA", makeTriangle(0.5, 0.5, 0.5));
  decision.addTerm("A", makeTrapezoid(1.0, 1.0, 0.5, 0.0));

  EngineSpec spec;
  spec.name = "FLC2";
  spec.config = config;
  spec.inputs.push_back(std::move(cv));
  spec.inputs.push_back(std::move(request));
  spec.inputs.push_back(std::move(counter));
  spec.output = std::move(decision);
  // Built once per process; the engine only reads the names while it is
  // constructed.
  static const std::vector<RuleSpec> kRules = [] {
    std::vector<RuleSpec> rules;
    for (const Frb2Row& row : frb2Table()) {
      rules.push_back({{row.cv, row.r, row.cs}, row.ar});
    }
    return rules;
  }();
  spec.rules = kRules;
  return MamdaniEngine{std::move(spec)};
}

}  // namespace facs::core
