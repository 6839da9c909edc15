#pragma once
/// \file radio_oracle.hpp
/// Test oracle for the radio layer: the log-domain path-loss chain
/// PL(d) = PL0 + 10 n log10(d / d0) that RadioModel's linear-domain gain
/// tables replaced. Production SIR never calls it; tests use it to check
/// that factoring out the gain constant is a reformulation, not a model
/// change.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cellular/radio.hpp"

namespace facs::cellular {

/// Path loss (dB) at distance \p d_km, clamped at the near-field guard.
/// \throws std::invalid_argument for negative distance.
[[nodiscard]] inline double pathLossDb(const PathLossParams& params,
                                       double d_km) {
  if (d_km < 0.0) {
    throw std::invalid_argument("path-loss distance must be >= 0");
  }
  const double d = std::max(d_km, params.min_distance_km);
  return params.reference_loss_db +
         10.0 * params.exponent *
             std::log10(d / params.reference_distance_km);
}

}  // namespace facs::cellular
