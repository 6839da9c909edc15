#include "core/flc1.hpp"

namespace facs::core {

using fuzzy::EngineSpec;
using fuzzy::Interval;
using fuzzy::LinguisticVariable;
using fuzzy::makeTrapezoid;
using fuzzy::makeTriangle;
using fuzzy::MamdaniEngine;
using fuzzy::RuleSpec;

const std::array<Frb1Row, 42>& frb1Table() noexcept {
  // Table 1 of the paper, rows 0-41.
  static const std::array<Frb1Row, 42> kTable{{
      {"Sl", "B1", "N", "Cv3"}, {"Sl", "B1", "F", "Cv1"},
      {"Sl", "L1", "N", "Cv4"}, {"Sl", "L1", "F", "Cv2"},
      {"Sl", "L2", "N", "Cv5"}, {"Sl", "L2", "F", "Cv3"},
      {"Sl", "St", "N", "Cv9"}, {"Sl", "St", "F", "Cv3"},
      {"Sl", "R1", "N", "Cv5"}, {"Sl", "R1", "F", "Cv2"},
      {"Sl", "R2", "N", "Cv4"}, {"Sl", "R2", "F", "Cv2"},
      {"Sl", "B2", "N", "Cv3"}, {"Sl", "B2", "F", "Cv1"},
      {"M", "B1", "N", "Cv2"},  {"M", "B1", "F", "Cv1"},
      {"M", "L1", "N", "Cv4"},  {"M", "L1", "F", "Cv1"},
      {"M", "L2", "N", "Cv8"},  {"M", "L2", "F", "Cv5"},
      {"M", "St", "N", "Cv9"},  {"M", "St", "F", "Cv7"},
      {"M", "R1", "N", "Cv8"},  {"M", "R1", "F", "Cv5"},
      {"M", "R2", "N", "Cv4"},  {"M", "R2", "F", "Cv1"},
      {"M", "B2", "N", "Cv2"},  {"M", "B2", "F", "Cv1"},
      {"Fa", "B1", "N", "Cv1"}, {"Fa", "B1", "F", "Cv1"},
      {"Fa", "L1", "N", "Cv1"}, {"Fa", "L1", "F", "Cv2"},
      {"Fa", "L2", "N", "Cv6"}, {"Fa", "L2", "F", "Cv8"},
      {"Fa", "St", "N", "Cv9"}, {"Fa", "St", "F", "Cv9"},
      {"Fa", "R1", "N", "Cv6"}, {"Fa", "R1", "F", "Cv8"},
      {"Fa", "R2", "N", "Cv1"}, {"Fa", "R2", "F", "Cv2"},
      {"Fa", "B2", "N", "Cv1"}, {"Fa", "B2", "F", "Cv1"},
  }};
  return kTable;
}

MamdaniEngine buildFlc1(fuzzy::EngineConfig config) {
  // S — user speed, Fig. 5(a): breakpoints 0, 15, 30, 60, 120 km/h.
  LinguisticVariable speed{"S", Interval{kSpeedMinKmh, kSpeedMaxKmh}};
  speed.addTerm("Sl", makeTrapezoid(0.0, 15.0, 0.0, 15.0));
  speed.addTerm("M", makeTriangle(30.0, 15.0, 30.0));
  speed.addTerm("Fa", makeTrapezoid(60.0, 120.0, 30.0, 0.0));

  // A — user angle, Fig. 5(b): breakpoints every 45 deg. 0 = straight at
  // the BS; L* = target off to the left of travel, R* = right; B* = back.
  LinguisticVariable angle{"A", Interval{kAngleMinDeg, kAngleMaxDeg}};
  angle.addTerm("B1", makeTrapezoid(-180.0, -135.0, 0.0, 45.0));
  angle.addTerm("L1", makeTriangle(-90.0, 45.0, 45.0));
  angle.addTerm("L2", makeTriangle(-45.0, 45.0, 45.0));
  angle.addTerm("St", makeTriangle(0.0, 45.0, 45.0));
  angle.addTerm("R1", makeTriangle(45.0, 45.0, 45.0));
  angle.addTerm("R2", makeTriangle(90.0, 45.0, 45.0));
  angle.addTerm("B2", makeTrapezoid(135.0, 180.0, 45.0, 0.0));

  // D — distance user <-> BS, Fig. 5(c): Near peaks at 0, Far at 10 km.
  LinguisticVariable distance{"D", Interval{kDistanceMinKm, kDistanceMaxKm}};
  distance.addTerm("N", makeTriangle(0.0, 0.0, 10.0));
  distance.addTerm("F", makeTriangle(10.0, 10.0, 0.0));

  // Cv — correction value, Fig. 5(d): nine evenly spaced terms over [0, 1];
  // Cv1/Cv9 are the paper's trapezoidal shoulders, Cv2..Cv8 triangles.
  LinguisticVariable cv{"Cv", Interval{kCvMin, kCvMax}};
  constexpr double kStep = 0.125;  // (1 - 0) / (9 - 1)
  cv.addTerm("Cv1", makeTrapezoid(0.0, 0.0, 0.0, kStep));
  for (int i = 2; i <= 8; ++i) {
    cv.addTerm("Cv" + std::to_string(i),
               makeTriangle(kStep * (i - 1), kStep, kStep));
  }
  cv.addTerm("Cv9", makeTrapezoid(1.0, 1.0, kStep, 0.0));

  EngineSpec spec;
  spec.name = "FLC1";
  spec.config = config;
  spec.inputs.push_back(std::move(speed));
  spec.inputs.push_back(std::move(angle));
  spec.inputs.push_back(std::move(distance));
  spec.output = std::move(cv);
  // Built once per process; the engine only reads the names while it is
  // constructed.
  static const std::vector<RuleSpec> kRules = [] {
    std::vector<RuleSpec> rules;
    for (const Frb1Row& row : frb1Table()) {
      rules.push_back({{row.s, row.a, row.d}, row.cv});
    }
    return rules;
  }();
  spec.rules = kRules;
  return MamdaniEngine{std::move(spec)};
}

}  // namespace facs::core
