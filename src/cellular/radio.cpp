#include "cellular/radio.hpp"

#include <cmath>
#include <stdexcept>

namespace facs::cellular {

double dbToLinear(double db) noexcept { return std::pow(10.0, db / 10.0); }
double linearToDb(double linear) noexcept { return 10.0 * std::log10(linear); }
double dbmToMw(double dbm) noexcept { return dbToLinear(dbm); }
double mwToDbm(double mw) noexcept { return linearToDb(mw); }

RadioModel::RadioModel(const HexNetwork& network, Config config)
    : network_{network}, config_{config} {
  if (config_.activity_factor < 0.0 || config_.activity_factor > 1.0) {
    throw std::invalid_argument("activity factor must be in [0, 1]");
  }
  if (!(config_.path_loss.exponent > 0.0)) {
    throw std::invalid_argument("path-loss exponent must be positive");
  }
  if (!(config_.path_loss.min_distance_km > 0.0)) {
    throw std::invalid_argument("minimum path-loss distance must be positive");
  }
  if (config_.interference_radius_hops < 0) {
    throw std::invalid_argument("interference radius must be >= 0 hops");
  }
  buildTables();
}

void RadioModel::buildTables() {
  const PathLossParams& pl = config_.path_loss;
  // PL(d) = PL0 + 10 n log10(d/d0)  =>  rx_dbm = tx - PL0 + 10 n log10(d0)
  // - 10 n log10(d), so in linear mW: rx = C * d^-n with the constant below.
  gain_const_mw_ =
      dbmToMw(config_.tx_power_dbm - pl.reference_loss_db +
              10.0 * pl.exponent * std::log10(pl.reference_distance_km));
  neg_half_exponent_ = -0.5 * pl.exponent;
  min_distance_sq_ = pl.min_distance_km * pl.min_distance_km;
  noise_mw_ = dbmToMw(config_.noise_floor_dbm);

  const std::size_t cells = network_.cellCount();
  const int radius = config_.interference_radius_hops;
  interferer_offsets_.assign(cells + 1, 0);
  interferer_ids_.clear();
  station_x_.clear();
  station_y_.clear();
  interferer_ids_.reserve(cells * (cells - (cells > 0 ? 1 : 0)));

  tail_bound_mw_ = 0.0;
  for (const Cell& serving : network_.cells()) {
    interferer_offsets_[serving.id] =
        static_cast<std::uint32_t>(interferer_ids_.size());
    double tail_mw = 0.0;
    for (const Cell& other : network_.cells()) {
      if (other.id == serving.id) continue;
      const bool in_footprint =
          radius == 0 || hexDistance(serving.coord, other.coord) <= radius;
      if (in_footprint) {
        interferer_ids_.push_back(other.id);
        station_x_.push_back(other.center.x);
        station_y_.push_back(other.center.y);
        continue;
      }
      // Worst case for a discarded interferer: its cell fully utilized and
      // the user at the serving cell's edge toward it — closest approach is
      // the centre distance minus the hex circumradius (clamped at the
      // path-loss pole guard, like every real link).
      const double closest_km =
          std::max(serving.center.distanceTo(other.center) -
                       network_.cellRadiusKm(),
                   pl.min_distance_km);
      tail_mw += config_.activity_factor * gain_const_mw_ *
                 std::pow(closest_km * closest_km, neg_half_exponent_);
    }
    tail_bound_mw_ = std::max(tail_bound_mw_, tail_mw);
  }
  interferer_offsets_[cells] =
      static_cast<std::uint32_t>(interferer_ids_.size());
}

double RadioModel::linkPowerMw(Vec2 position, CellId cell) const {
  const double dx = position.x - network_.cell(cell).center.x;
  const double dy = position.y - network_.cell(cell).center.y;
  const double d2 = std::max(dx * dx + dy * dy, min_distance_sq_);
  return gain_const_mw_ * std::pow(d2, neg_half_exponent_);
}

double RadioModel::receivedPowerDbm(Vec2 position, CellId cell) const {
  return mwToDbm(linkPowerMw(position, cell));
}

double RadioModel::sinrDb(Vec2 position, CellId serving_cell) const {
  return sinrDbWith(position, serving_cell, [this](CellId cell) {
    return network_.station(cell).utilization();
  });
}

}  // namespace facs::cellular
