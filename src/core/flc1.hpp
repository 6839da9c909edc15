#pragma once
/// \file flc1.hpp
/// FLC1 — the fuzzy *prediction* controller (paper Section 3.1).
///
/// Inputs:  S (user speed, km/h), A (user angle, deg), D (distance, km).
/// Output:  Cv (correction value) in [0, 1]; higher = the user's trajectory
///          is more favourable / predictable for this base station.
///
/// Membership functions follow Fig. 5; the rule base is Table 1 verbatim
/// (42 rules = |T(S)| x |T(A)| x |T(D)| = 3 x 7 x 2).

#include <array>

#include "fuzzy/engine.hpp"

namespace facs::core {

/// Universe bounds from the paper's simulation section.
inline constexpr double kSpeedMinKmh = 0.0;
inline constexpr double kSpeedMaxKmh = 120.0;
inline constexpr double kAngleMinDeg = -180.0;
inline constexpr double kAngleMaxDeg = 180.0;
inline constexpr double kDistanceMinKm = 0.0;
inline constexpr double kDistanceMaxKm = 10.0;
inline constexpr double kCvMin = 0.0;
inline constexpr double kCvMax = 1.0;

/// One row of Table 1, by term name.
struct Frb1Row {
  const char* s;
  const char* a;
  const char* d;
  const char* cv;
};

/// Table 1 verbatim (rules 0..41). Exposed so tests can cross-check the
/// built engine against the paper row by row.
[[nodiscard]] const std::array<Frb1Row, 42>& frb1Table() noexcept;

/// Builds FLC1 with the paper's membership functions and rule base.
/// The engine's constructor validates it, and its rule base is complete
/// over the input cartesian product.
[[nodiscard]] fuzzy::MamdaniEngine buildFlc1(
    fuzzy::EngineConfig config = {});

}  // namespace facs::core
