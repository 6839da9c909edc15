#pragma once
/// \file model.hpp
/// User mobility models.
///
/// The paper's evaluation rests on one behavioural premise (Section 4):
/// slow (walking) users change direction easily, so their trajectory is
/// hard to predict; fast (vehicular) users cannot turn sharply, so
/// prediction is reliable. SpeedDependentTurn encodes exactly that premise;
/// RandomWaypoint and GaussMarkov are provided as standard alternatives for
/// sensitivity experiments.

#include <memory>

#include "cellular/geometry.hpp"
#include "sim/rng.hpp"

namespace facs::mobility {

/// Ground-truth kinematic state of a user.
struct MotionState {
  cellular::Vec2 position_km{};
  double speed_kmh = 0.0;
  double heading_deg = 0.0;  ///< Math angle, (-180, 180].
};

/// Advances a MotionState through time. One instance per user (models may
/// keep per-user state such as the current waypoint).
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Advances \p state by \p dt_s seconds.
  /// \throws std::invalid_argument if dt_s is not positive.
  virtual void step(MotionState& state, double dt_s,
                    sim::Rng& rng) = 0;

 protected:
  MobilityModel() = default;
};

/// Straight-line motion at constant speed and heading.
class ConstantVelocity final : public MobilityModel {
 public:
  void step(MotionState& state, double dt_s, sim::Rng& rng) override;
};

/// Parameters of the speed-dependent direction-change model.
struct SpeedDependentTurnParams {
  /// Heading diffusion of a stationary user, in degrees per sqrt(second).
  /// A pedestrian (4 km/h) keeps most of this; a car (60+ km/h) almost none.
  double sigma_max_deg = 40.0;
  /// Speed scale of the decay: sigma(v) = sigma_max * exp(-v / v_ref_kmh).
  double v_ref_kmh = 18.0;
};

/// The paper's mobility premise: heading performs a random walk whose
/// standard deviation decays exponentially with speed. Speed is constant.
class SpeedDependentTurn final : public MobilityModel {
 public:
  explicit SpeedDependentTurn(SpeedDependentTurnParams params = {});

  void step(MotionState& state, double dt_s, sim::Rng& rng) override;

  /// Heading standard deviation (deg per sqrt-second) at a given speed.
  [[nodiscard]] double sigmaDeg(double speed_kmh) const noexcept;

  [[nodiscard]] const SpeedDependentTurnParams& params() const noexcept {
    return params_;
  }

 private:
  SpeedDependentTurnParams params_;
};

/// Gauss-Markov mobility: speed and heading are mean-reverting AR(1)
/// processes with tunable memory alpha in [0, 1] (1 = straight line,
/// 0 = memoryless).
struct GaussMarkovParams {
  double alpha = 0.85;
  double mean_speed_kmh = 30.0;
  double speed_sigma_kmh = 5.0;
  double heading_sigma_deg = 25.0;
  /// Steps are normalized to this period so alpha is dt-independent.
  double reference_dt_s = 1.0;
};

class GaussMarkov final : public MobilityModel {
 public:
  /// \throws std::invalid_argument for alpha outside [0, 1] or non-positive
  ///         sigmas / reference period.
  explicit GaussMarkov(GaussMarkovParams params = {});

  void step(MotionState& state, double dt_s, sim::Rng& rng) override;

  [[nodiscard]] const GaussMarkovParams& params() const noexcept {
    return params_;
  }

 private:
  GaussMarkovParams params_;
  /// Mean heading the process reverts to; captured from the first step so
  /// users keep their initial general direction.
  double mean_heading_deg_ = 0.0;
  bool mean_heading_set_ = false;
};

/// Random waypoint inside a disc of radius \p area_radius_km centred at the
/// origin: move to a uniformly chosen waypoint, optionally pause, repeat.
class RandomWaypoint final : public MobilityModel {
 public:
  /// \throws std::invalid_argument on non-positive radius or negative pause.
  explicit RandomWaypoint(double area_radius_km, double pause_s = 0.0);

  void step(MotionState& state, double dt_s, sim::Rng& rng) override;

 private:
  void pickWaypoint(const MotionState& state, sim::Rng& rng);

  double area_radius_km_;
  double pause_s_;
  cellular::Vec2 waypoint_{};
  bool has_waypoint_ = false;
  double pause_remaining_s_ = 0.0;
};

}  // namespace facs::mobility
