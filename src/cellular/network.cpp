#include "cellular/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace facs::cellular {

HexNetwork::HexNetwork(int rings, double cell_radius_km,
                       BandwidthUnits capacity_bu,
                       const std::vector<CellCapacityOverride>& capacity_overrides)
    : rings_{rings}, cell_radius_km_{cell_radius_km} {
  if (rings < 0) throw std::invalid_argument("rings must be >= 0");
  if (!(cell_radius_km > 0.0)) {
    throw std::invalid_argument("cell radius must be positive");
  }

  const std::vector<HexCoord> coords = hexDisk(rings);
  std::vector<BandwidthUnits> capacities(coords.size(), capacity_bu);
  std::vector<bool> overridden(coords.size(), false);
  for (const auto& [cell, bu] : capacity_overrides) {
    if (static_cast<std::size_t>(cell) >= coords.size()) {
      throw std::invalid_argument(
          "capacity override for cell " + std::to_string(cell) +
          " outside the " + std::to_string(coords.size()) + "-cell disk");
    }
    if (overridden[cell]) {
      throw std::invalid_argument("duplicate capacity override for cell " +
                                  std::to_string(cell));
    }
    if (bu <= 0) {
      throw std::invalid_argument("capacity override for cell " +
                                  std::to_string(cell) + " must be positive");
    }
    capacities[cell] = bu;
    overridden[cell] = true;
  }

  // Farthest reach of the disk: sqrt(3)/2 radii past the outermost
  // centres in x, one radius in y; one more radius of margin keeps every
  // point that rounds into the disk inside the box.
  max_abs_x_km_ = cell_radius_km_ * (std::sqrt(3.0) * (rings + 0.5) + 1.0);
  max_abs_y_km_ = cell_radius_km_ * (1.5 * rings + 2.0);

  const auto side = static_cast<std::size_t>(2 * rings + 1);
  axial_.assign(side * side, kInvalidCell);
  cells_.reserve(coords.size());
  stations_.reserve(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const auto id = static_cast<CellId>(i);
    cells_.push_back({id, coords[i], hexCenter(coords[i], cell_radius_km_)});
    stations_.emplace_back(id, capacities[i]);
    axial_[static_cast<std::size_t>(coords[i].r + rings) * side +
           static_cast<std::size_t>(coords[i].q + rings)] = id;
  }

  neighbors_.resize(cells_.size());
  for (const Cell& c : cells_) {
    for (const HexCoord& n : hexNeighbors(c.coord)) {
      const CellId id = cellAtHex(n);
      if (id != kInvalidCell) neighbors_[c.id].push_back(id);
    }
  }
}

CellId HexNetwork::cellAtHex(HexCoord h) const noexcept {
  // Unsigned wrap-around sends every coordinate left of or below the
  // rhombus past `side` as well, without a signed overflow on wild input.
  const auto side = static_cast<unsigned>(2 * rings_ + 1);
  const unsigned col =
      static_cast<unsigned>(h.q) + static_cast<unsigned>(rings_);
  const unsigned row =
      static_cast<unsigned>(h.r) + static_cast<unsigned>(rings_);
  if (col >= side || row >= side) return kInvalidCell;
  return axial_[static_cast<std::size_t>(row) * side + col];
}

std::optional<CellId> HexNetwork::cellAt(Vec2 position) const {
  // The negated form also rejects NaN; anything left is small enough for
  // pointToHex's double -> int rounding.
  if (!(std::abs(position.x) <= max_abs_x_km_) ||
      !(std::abs(position.y) <= max_abs_y_km_)) {
    return std::nullopt;
  }
  const CellId id = cellAtHex(pointToHex(position, cell_radius_km_));
  if (id == kInvalidCell) return std::nullopt;
  return id;
}

std::vector<std::vector<CellId>> HexNetwork::cellsWithinHops(int hops) const {
  // Hops beyond the disk's diameter reach nothing new.
  const std::vector<HexCoord> offsets = hexDisk(std::min(hops, 2 * rings_));
  std::vector<std::vector<CellId>> out(cells_.size());
  for (const Cell& c : cells_) {
    std::vector<CellId>& ids = out[c.id];
    for (const HexCoord& o : offsets) {
      const CellId id = cellAtHex({c.coord.q + o.q, c.coord.r + o.r});
      if (id != kInvalidCell) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
  }
  return out;
}

BandwidthUnits HexNetwork::totalOccupiedBu() const noexcept {
  BandwidthUnits total = 0;
  for (const BaseStation& s : stations_) total += s.occupiedBu();
  return total;
}

BandwidthUnits HexNetwork::totalCapacityBu() const noexcept {
  BandwidthUnits total = 0;
  for (const BaseStation& s : stations_) total += s.capacityBu();
  return total;
}

CellGroupPartition::CellGroupPartition(const HexNetwork& network, int groups) {
  const std::size_t cells = network.cellCount();
  if (groups < 1) throw std::invalid_argument("commit groups must be >= 1");
  groups_ = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(groups), cells));

  // Contiguous balanced ranges: cell c belongs to floor(c * G / cells).
  // Monotone in c, every group non-empty, sizes differ by at most one.
  group_of_.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    group_of_[c] = static_cast<int>((c * static_cast<std::size_t>(groups_)) /
                                    cells);
  }

  computeInterior(network);
}

CellGroupPartition::CellGroupPartition(const HexNetwork& network, int groups,
                                       const std::vector<double>& weights) {
  const std::size_t cells = network.cellCount();
  if (groups < 1) throw std::invalid_argument("commit groups must be >= 1");
  if (weights.size() != cells) {
    throw std::invalid_argument("partition weights must name every cell");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "partition weights must be non-negative and finite");
    }
    total += w;
  }
  groups_ = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(groups), cells));

  // Greedy cumulative-weight walk: close the current group once it has
  // absorbed its fair share of the REMAINING weight (remaining weight over
  // remaining groups — self-correcting, so one huge cell overshooting its
  // group does not starve the rest), while always leaving at least one
  // cell per group still to open. All-zero weights degrade to the uniform
  // walk (every cell weighs 1). Boundaries are monotone in cell id, so the
  // ranges stay contiguous and spatially coherent under the spiral layout.
  group_of_.assign(cells, 0);
  const bool uniform = !(total > 0.0);
  double remaining = uniform ? static_cast<double>(cells) : total;
  int g = 0;
  double acc = 0.0;
  for (std::size_t c = 0; c < cells; ++c) {
    group_of_[c] = g;
    const double w = uniform ? 1.0 : weights[c];
    acc += w;
    remaining -= w;
    const std::size_t cells_left = cells - c - 1;
    const std::size_t groups_left =
        static_cast<std::size_t>(groups_ - g - 1);
    if (groups_left == 0) continue;  // last group takes the tail
    const double target =
        (acc + remaining) / static_cast<double>(groups_left + 1);
    // Close on reaching the fair share — or when the tail has exactly one
    // cell per unopened group left (no group may end up empty).
    if (acc >= target || cells_left == groups_left) {
      ++g;
      acc = 0.0;
    }
  }

  computeInterior(network);
}

void CellGroupPartition::computeInterior(const HexNetwork& network) {
  interior_.assign(group_of_.size(), true);
  boundary_cells_ = 0;
  for (const Cell& cell : network.cells()) {
    const std::size_t i = static_cast<std::size_t>(cell.id);
    for (const CellId n : network.neighbors(cell.id)) {
      if (group_of_[static_cast<std::size_t>(n)] != group_of_[i]) {
        interior_[i] = false;
        break;
      }
    }
    if (!interior_[i]) ++boundary_cells_;
  }
}

}  // namespace facs::cellular
