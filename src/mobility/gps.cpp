#include "mobility/gps.hpp"

#include <cmath>
#include <stdexcept>

namespace facs::mobility {

using cellular::UserSnapshot;
using cellular::Vec2;

GpsSampler::GpsSampler(double horizontal_error_m)
    : horizontal_error_m_{horizontal_error_m} {
  if (horizontal_error_m_ < 0.0) {
    throw std::invalid_argument("GPS horizontal error must be >= 0");
  }
}

GpsFix GpsSampler::sample(double t_s, Vec2 true_position_km,
                          sim::Rng& rng) const {
  if (horizontal_error_m_ == 0.0) return {t_s, true_position_km};
  std::normal_distribution<double> noise{0.0, horizontal_error_m_ / 1000.0};
  return {t_s, {true_position_km.x + noise(rng), true_position_km.y + noise(rng)}};
}

GpsEstimator::GpsEstimator(std::size_t window) : window_{window} {
  if (window_ < 2) {
    throw std::invalid_argument("GPS estimator window must be >= 2");
  }
}

void GpsEstimator::addFix(const GpsFix& fix) {
  if (!fixes_.empty() && fix.t_s <= fixes_.back().t_s) {
    throw std::invalid_argument("GPS fixes must have increasing timestamps");
  }
  fixes_.push_back(fix);
  while (fixes_.size() > window_) fixes_.erase(fixes_.begin());
}

std::optional<MotionState> GpsEstimator::motion() const {
  if (!ready()) return std::nullopt;
  const GpsFix& oldest = fixes_.front();
  const GpsFix& newest = fixes_.back();
  const double dt_s = newest.t_s - oldest.t_s;
  const Vec2 displacement = newest.position_km - oldest.position_km;

  MotionState m;
  m.position_km = newest.position_km;
  m.speed_kmh = displacement.norm() / dt_s * 3600.0;
  m.heading_deg = (displacement.x == 0.0 && displacement.y == 0.0)
                      ? 0.0
                      : cellular::bearingDeg(oldest.position_km,
                                             newest.position_km);
  return m;
}

UserSnapshot GpsEstimator::snapshot(Vec2 station_position_km) const {
  const auto m = motion();
  if (!m) {
    throw std::logic_error("GPS estimator needs >= 2 fixes for a snapshot");
  }
  return snapshotFromTruth(*m, station_position_km);
}

UserSnapshot snapshotFromTruth(const MotionState& state,
                               Vec2 station_position_km) {
  UserSnapshot s;
  s.position = state.position_km;
  s.speed_kmh = state.speed_kmh;
  s.distance_km = state.position_km.distanceTo(station_position_km);
  s.angle_deg = cellular::headingDeviationDeg(
      state.heading_deg, state.position_km, station_position_km);
  return s;
}

}  // namespace facs::mobility
