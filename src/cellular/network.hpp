#pragma once
/// \file network.hpp
/// A hexagonal cellular layout: cells, their base stations and adjacency.

#include <optional>
#include <utility>
#include <vector>

#include "cellular/basestation.hpp"
#include "cellular/geometry.hpp"

namespace facs::cellular {

/// Per-cell deviation from the network's uniform base-station capacity
/// (heterogeneous deployments: a stadium mast with extra carriers next to
/// thin precinct cells). Scenario files spell these as `[cell N]` sections.
using CellCapacityOverride = std::pair<CellId, BandwidthUnits>;

/// One cell of the network.
struct Cell {
  CellId id = 0;
  HexCoord coord{};
  Vec2 center{};
};

/// A hexagonal disk of cells around a centre cell, each with its own base
/// station. The paper's evaluation uses a single BS (rings = 0, 40 BU,
/// 10 km radius); multi-ring networks support the SCC baseline and the
/// handoff experiments.
class HexNetwork {
 public:
  /// \param rings        number of rings around the centre cell (>= 0).
  /// \param cell_radius_km hex circumradius; the paper's user-to-BS
  ///                      distances span 0-10 km, so the default is 10.
  /// \param capacity_bu  per-BS capacity (paper: 40 BU).
  /// \param capacity_overrides per-cell capacities replacing the uniform
  ///                      \p capacity_bu for the named cells.
  /// \throws std::invalid_argument on negative rings, non-positive radius,
  ///         an override naming a cell outside the disk, a duplicate
  ///         override or a non-positive override capacity.
  HexNetwork(int rings, double cell_radius_km = 10.0,
             BandwidthUnits capacity_bu = kPaperCellCapacityBu,
             const std::vector<CellCapacityOverride>& capacity_overrides = {});

  [[nodiscard]] std::size_t cellCount() const noexcept { return cells_.size(); }
  [[nodiscard]] double cellRadiusKm() const noexcept { return cell_radius_km_; }
  [[nodiscard]] const Cell& cell(CellId id) const { return cells_.at(id); }
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] BaseStation& station(CellId id) { return stations_.at(id); }
  [[nodiscard]] const BaseStation& station(CellId id) const {
    return stations_.at(id);
  }

  /// Cell containing a planar point, if any cell of the disk does. O(1) at
  /// any network size: a point that is not finite, or lies outside the
  /// disk's bounding box, is rejected in the double domain; any other point
  /// is rounded to its hex (pointToHex) and read from a dense axial table
  /// of (2*rings+1)^2 ids covering the disk's bounding rhombus
  /// (kInvalidCell off the disk) — 1,369 ids, about 5 KB, at 1,027 cells.
  [[nodiscard]] std::optional<CellId> cellAt(Vec2 position) const;

  /// Cell at an axial coordinate, or kInvalidCell off the disk. O(1).
  [[nodiscard]] CellId cellAtHex(HexCoord h) const noexcept;

  /// For every cell, the ascending ids of the cells within \p hops grid
  /// hops of it (itself included), found by walking hexDisk offsets
  /// through the axial table: O(cells x min(hops, 2*rings)^2).
  [[nodiscard]] std::vector<std::vector<CellId>> cellsWithinHops(
      int hops) const;

  /// Ids of in-network neighbours of a cell (up to 6), in hexNeighbors
  /// order (E, NE, NW, W, SW, SE).
  [[nodiscard]] const std::vector<CellId>& neighbors(CellId id) const {
    return neighbors_.at(id);
  }

  /// Straight-line distance from a point to a cell's base station.
  [[nodiscard]] double distanceToStationKm(Vec2 position, CellId id) const {
    return position.distanceTo(cell(id).center);
  }

  /// Total occupied and total capacity over all stations.
  [[nodiscard]] BandwidthUnits totalOccupiedBu() const noexcept;
  [[nodiscard]] BandwidthUnits totalCapacityBu() const noexcept;

 private:
  int rings_;
  double cell_radius_km_;
  /// Dense axial lookup: entry (r + rings) * (2*rings+1) + (q + rings).
  std::vector<CellId> axial_;
  /// Half-extents of the bounding box cellAt accepts, with a one-radius
  /// margin so no point that rounds into the disk is cut off.
  double max_abs_x_km_;
  double max_abs_y_km_;
  std::vector<Cell> cells_;
  std::vector<BaseStation> stations_;
  std::vector<std::vector<CellId>> neighbors_;
};

/// Deterministic partition of a network's cells into commit groups — the
/// cell-to-lane mapping of the simulator's two-level commit scheme (and, in
/// the paper's terms, the assignment of base stations to coordination
/// domains that exchange inter-BS handoff messages).
///
/// Cells are split into contiguous id ranges. Spiral hex ids make
/// contiguous ranges spatially coherent (whole rings and arcs), so most
/// neighbours land in the same group and most handoffs stay group-local.
/// Two balance criteria share that shape:
///
///  * **Unweighted** (the historical default): near-equal range SIZES —
///    cell c belongs to floor(c * groups / cells). A pure function of
///    (cell count, groups).
///  * **Weighted**: near-equal range WEIGHTS. Given one non-negative load
///    weight per cell (spawn rates, observed commit traffic), boundaries
///    are placed by a greedy cumulative-weight walk so every group carries
///    about total/groups weight — a hotspot cell stops dragging its whole
///    id range into one overloaded lane. A pure function of (weights,
///    groups): still independent of shard count and thread timing.
class CellGroupPartition {
 public:
  /// \param groups requested group count; clamped to [1, cellCount] so a
  ///        partition always exists (empty groups are pointless).
  CellGroupPartition(const HexNetwork& network, int groups);

  /// Weighted variant: contiguous ranges of near-equal total weight.
  /// Deterministic for fixed (weights, groups); every group is non-empty.
  /// \param weights one non-negative finite weight per cell; an all-zero
  ///        vector degrades to uniform weights.
  /// \throws std::invalid_argument on a size mismatch or a negative /
  ///         non-finite weight.
  CellGroupPartition(const HexNetwork& network, int groups,
                     const std::vector<double>& weights);

  /// Effective group count after clamping.
  [[nodiscard]] int groups() const noexcept { return groups_; }

  [[nodiscard]] int groupOf(CellId cell) const {
    return group_of_.at(static_cast<std::size_t>(cell));
  }

  /// True iff the cell and every in-network neighbour share one group —
  /// i.e. any handoff out of this cell commits without a cross-group
  /// reservation.
  [[nodiscard]] bool interior(CellId cell) const {
    return interior_.at(static_cast<std::size_t>(cell));
  }

  /// Cells with at least one neighbour in another group (the inter-BS
  /// boundary where reservations happen).
  [[nodiscard]] std::size_t boundaryCells() const noexcept {
    return boundary_cells_;
  }

 private:
  /// Marks boundary/interior cells from the finished group_of_ mapping.
  void computeInterior(const HexNetwork& network);

  int groups_;
  std::vector<int> group_of_;
  std::vector<bool> interior_;
  std::size_t boundary_cells_ = 0;
};

}  // namespace facs::cellular
