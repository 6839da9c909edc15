#pragma once
/// \file gps.hpp
/// GPS measurement substrate.
///
/// The paper states: "The user movement is obtained by GPS and the fuzzy
/// decision is based on the user speed, angle and distance from the Base
/// Station." We have no physical receivers, so this module substitutes a
/// synthetic GPS: positions are sampled from the ground-truth trajectory
/// with Gaussian horizontal error, and a small estimator reconstructs the
/// (S, A, D) measurement vector the controllers consume. This preserves
/// the property the paper leans on — controller inputs are noisy and the
/// admission logic must tolerate that (hence fuzzy logic).

#include <optional>
#include <vector>

#include "cellular/call.hpp"
#include "mobility/model.hpp"
#include "sim/rng.hpp"

namespace facs::mobility {

/// One timestamped (noisy) position fix.
struct GpsFix {
  double t_s = 0.0;
  cellular::Vec2 position_km{};
};

/// Draws fixes from a true position with configurable horizontal error.
class GpsSampler {
 public:
  /// \param horizontal_error_m 1-sigma per-axis position error in metres
  ///        (typical consumer GPS of the paper's era: 5-15 m).
  /// \throws std::invalid_argument if the error is negative.
  explicit GpsSampler(double horizontal_error_m = 10.0);

  [[nodiscard]] GpsFix sample(double t_s, cellular::Vec2 true_position_km,
                              sim::Rng& rng) const;

  [[nodiscard]] double horizontalErrorM() const noexcept {
    return horizontal_error_m_;
  }

 private:
  double horizontal_error_m_;
};

/// Reconstructs the controller's measurement vector from recent fixes.
///
/// Speed and heading come from a finite difference over the estimator
/// window (older fix to newest fix), which low-passes GPS jitter the same
/// way a receiver's velocity filter would.
class GpsEstimator {
 public:
  /// \param window how many fixes to retain (>= 2).
  /// \throws std::invalid_argument if window < 2.
  explicit GpsEstimator(std::size_t window = 4);

  /// Adds a fix. Fix timestamps must be strictly increasing.
  /// \throws std::invalid_argument on a non-monotonic timestamp.
  void addFix(const GpsFix& fix);

  /// Forgets every fix but keeps the window and the fix storage, so one
  /// estimator instance can track many calls in sequence without
  /// reallocating — the streaming engine's per-shard scratch estimators
  /// rely on this for allocation-free steady state.
  void reset() noexcept { fixes_.clear(); }

  [[nodiscard]] std::size_t fixCount() const noexcept { return fixes_.size(); }
  [[nodiscard]] bool ready() const noexcept { return fixes_.size() >= 2; }

  /// Estimated kinematics, or nullopt until two fixes are available.
  [[nodiscard]] std::optional<MotionState> motion() const;

  /// Builds the FLC1 measurement vector relative to a base station.
  /// \throws std::logic_error if not ready().
  [[nodiscard]] cellular::UserSnapshot snapshot(
      cellular::Vec2 station_position_km) const;

 private:
  std::size_t window_;
  /// Sliding window kept in a vector (capacity is retained across
  /// reset()); the window is a handful of fixes, so the front erase is
  /// cheaper than deque's per-block allocation.
  std::vector<GpsFix> fixes_;
};

/// Convenience: builds a noiseless UserSnapshot straight from ground truth
/// (used by experiments that isolate controller behaviour from GPS error).
[[nodiscard]] cellular::UserSnapshot snapshotFromTruth(
    const MotionState& state, cellular::Vec2 station_position_km);

}  // namespace facs::mobility
