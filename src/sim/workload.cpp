#include "sim/workload.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace facs::sim {

using cellular::normalizeAngleDeg;
using cellular::Vec2;

void validateScenario(const ScenarioParams& s) {
  if (s.tracking_window_s < 0.0) {
    throw std::invalid_argument("tracking window must be >= 0");
  }
  if (s.tracking_window_s > 0.0 &&
      (!(s.gps_fix_period_s > 0.0) ||
       s.gps_fix_period_s > s.tracking_window_s)) {
    throw std::invalid_argument(
        "GPS fix period must be in (0, tracking_window]");
  }
  // The tracking walk counts its fixes in an int; the negated form also
  // rejects the NaN of an infinite window over an infinite period.
  if (s.tracking_window_s > 0.0 &&
      !(s.tracking_window_s / s.gps_fix_period_s + 1.0 <=
        static_cast<double>(std::numeric_limits<int>::max()))) {
    throw std::invalid_argument(
        "tracking window / GPS fix period must fit an int fix count");
  }
}

RequestPlan drawRequest(const ScenarioParams& scenario, Vec2 station_center,
                        cellular::CellId target_cell, Rng& rng) {
  if (scenario.speed_max_kmh < scenario.speed_min_kmh ||
      scenario.distance_max_km < scenario.distance_min_km) {
    throw std::invalid_argument("scenario ranges are inverted");
  }

  RequestPlan plan;
  plan.target_cell = target_cell;
  plan.service = scenario.mix.sample(rng);

  const double distance_km =
      scenario.distance_min_km == scenario.distance_max_km
          ? scenario.distance_min_km
          : sampleUniform(rng, scenario.distance_min_km,
                          scenario.distance_max_km);
  const double azimuth_deg = sampleUniform(rng, -180.0, 180.0);
  plan.initial.position_km =
      station_center + cellular::headingVector(azimuth_deg) * distance_km;

  plan.initial.speed_kmh =
      scenario.speed_min_kmh == scenario.speed_max_kmh
          ? scenario.speed_min_kmh
          : sampleUniform(rng, scenario.speed_min_kmh, scenario.speed_max_kmh);

  const double bearing_to_bs =
      cellular::bearingDeg(plan.initial.position_km, station_center);
  const double deviation_deg =
      scenario.angle_sigma_deg == 0.0
          ? scenario.angle_mean_deg
          : sampleNormal(rng, scenario.angle_mean_deg,
                         scenario.angle_sigma_deg);
  plan.initial.heading_deg = normalizeAngleDeg(bearing_to_bs + deviation_deg);
  return plan;
}

ScenarioParams fig7Scenario(double speed_kmh) {
  ScenarioParams s;
  s.speed_min_kmh = speed_kmh;
  s.speed_max_kmh = speed_kmh;
  s.angle_mean_deg = 0.0;
  s.angle_sigma_deg = 15.0;
  s.tracking_window_s = 30.0;
  return s;
}

ScenarioParams fig8Scenario(double angle_deg) {
  ScenarioParams s;
  s.angle_mean_deg = angle_deg;
  s.angle_sigma_deg = 0.0;       // the figure fixes the angle exactly
  s.tracking_window_s = 0.0;     // measure at request time, no drift
  s.gps_error_m.reset();         // isolate the angle effect from GPS noise
  return s;
}

ScenarioParams fig9Scenario(double distance_km) {
  ScenarioParams s;
  s.distance_min_km = distance_km;
  s.distance_max_km = distance_km;
  s.tracking_window_s = 0.0;     // keep the user at the stated distance
  s.gps_error_m.reset();
  return s;
}

ScenarioParams fig10Scenario() {
  ScenarioParams s;
  // Section 4 sweeps "the user direction ... from -180 degree to +180
  // degree": the comparison population spreads over the whole range, which
  // is what gives FACS something to be selective about under load.
  s.angle_sigma_deg = 75.0;
  return s;
}

}  // namespace facs::sim
