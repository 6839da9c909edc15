#include "cellular/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "cellular/call.hpp"

namespace facs::cellular {
namespace {

/// The linear-scan cellAt the axial table replaced, kept as its oracle.
std::optional<CellId> scanCellAt(const HexNetwork& net, Vec2 position) {
  const HexCoord h = pointToHex(position, net.cellRadiusKm());
  for (const Cell& c : net.cells()) {
    if (c.coord == h) return c.id;
  }
  return std::nullopt;
}

/// The hash-map neighbour derivation the axial table replaced.
struct HexHash {
  std::size_t operator()(const HexCoord& h) const noexcept {
    return std::hash<long long>{}(
        (static_cast<long long>(h.q) << 32) ^
        static_cast<long long>(static_cast<unsigned>(h.r)));
  }
};

std::vector<std::vector<CellId>> hashMapNeighbors(const HexNetwork& net) {
  std::unordered_map<HexCoord, CellId, HexHash> index;
  for (const Cell& c : net.cells()) index.emplace(c.coord, c.id);
  std::vector<std::vector<CellId>> out(net.cellCount());
  for (const Cell& c : net.cells()) {
    for (const HexCoord& n : hexNeighbors(c.coord)) {
      const auto it = index.find(n);
      if (it != index.end()) out[c.id].push_back(it->second);
    }
  }
  return out;
}

/// Every cell within \p hops of every cell, by the all-pairs walk.
std::vector<std::vector<CellId>> allPairsWithinHops(const HexNetwork& net,
                                                    int hops) {
  std::vector<std::vector<CellId>> out(net.cellCount());
  for (const Cell& center : net.cells()) {
    for (const Cell& cell : net.cells()) {
      if (hexDistance(center.coord, cell.coord) <= hops) {
        out[center.id].push_back(cell.id);
      }
    }
  }
  return out;
}

/// Points where cube rounding ties: every vertex of every cell, the
/// midpoint of every edge and two more points along it.
std::vector<Vec2> edgeAndVertexPoints(const HexNetwork& net) {
  const double r = net.cellRadiusKm();
  std::vector<Vec2> out;
  for (const Cell& c : net.cells()) {
    for (int i = 0; i < 6; ++i) {
      const Vec2 a = c.center + headingVector(30.0 + 60.0 * i) * r;
      const Vec2 b = c.center + headingVector(90.0 + 60.0 * i) * r;
      for (const double t : {0.0, 0.25, 0.5, 0.75}) {
        out.push_back(a + (b - a) * t);
      }
    }
  }
  return out;
}

TEST(HexNetwork, SingleCellPaperSetup) {
  const HexNetwork net{0};
  EXPECT_EQ(net.cellCount(), 1u);
  EXPECT_DOUBLE_EQ(net.cellRadiusKm(), 10.0);
  EXPECT_EQ(net.station(0).capacityBu(), kPaperCellCapacityBu);
  EXPECT_EQ(net.cell(0).center, (Vec2{0.0, 0.0}));
  EXPECT_TRUE(net.neighbors(0).empty());
}

TEST(HexNetwork, Validation) {
  EXPECT_THROW(HexNetwork(-1), std::invalid_argument);
  EXPECT_THROW(HexNetwork(1, 0.0), std::invalid_argument);
  EXPECT_THROW(HexNetwork(1, 10.0, 0), std::invalid_argument);
}

TEST(HexNetwork, OneRingHasSevenCellsWithCorrectAdjacency) {
  const HexNetwork net{1};
  EXPECT_EQ(net.cellCount(), 7u);
  // Centre touches all six others.
  EXPECT_EQ(net.neighbors(0).size(), 6u);
  // Ring cells touch the centre plus two ring siblings (3 in-network).
  for (CellId id = 1; id < 7; ++id) {
    EXPECT_EQ(net.neighbors(id).size(), 3u) << "cell " << id;
  }
}

TEST(HexNetwork, TwoRingAdjacencyCounts) {
  const HexNetwork net{2};
  EXPECT_EQ(net.cellCount(), 19u);
  EXPECT_EQ(net.neighbors(0).size(), 6u);
  // Inner-ring cells now have all 6 neighbours in-network.
  for (CellId id = 1; id < 7; ++id) {
    EXPECT_EQ(net.neighbors(id).size(), 6u) << "cell " << id;
  }
}

TEST(HexNetwork, CellAtFindsCentersAndRejectsOutside) {
  const HexNetwork net{1, 10.0};
  for (const Cell& c : net.cells()) {
    const auto found = net.cellAt(c.center);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, c.id);
  }
  // Far outside the 7-cell disk.
  EXPECT_FALSE(net.cellAt({200.0, 200.0}).has_value());
}

TEST(HexNetwork, CellAtMatchesLinearScanOracle) {
  for (const int rings : {0, 1, 2, 8, 18, 20}) {
    const HexNetwork net{rings, 1.5};
    const double r = net.cellRadiusKm();
    for (const Cell& c : net.cells()) {
      ASSERT_EQ(net.cellAt(c.center), std::optional<CellId>{c.id})
          << "rings " << rings << " cell " << c.id;
    }
    for (const Vec2 p : edgeAndVertexPoints(net)) {
      ASSERT_EQ(net.cellAt(p), scanCellAt(net, p))
          << "rings " << rings << " at (" << p.x << ", " << p.y << ")";
    }
    // Uniform points over 1.5x the disk's extent: about half land outside.
    const double half_x = 1.5 * std::sqrt(3.0) * r * (rings + 0.5);
    const double half_y = 1.5 * r * (1.5 * rings + 1.0);
    std::mt19937_64 gen{static_cast<std::uint64_t>(rings) + 11};
    std::uniform_real_distribution<double> ux{-half_x, half_x};
    std::uniform_real_distribution<double> uy{-half_y, half_y};
    int inside = 0;
    for (int i = 0; i < 10000; ++i) {
      const Vec2 p{ux(gen), uy(gen)};
      const std::optional<CellId> expected = scanCellAt(net, p);
      ASSERT_EQ(net.cellAt(p), expected)
          << "rings " << rings << " at (" << p.x << ", " << p.y << ")";
      inside += expected.has_value() ? 1 : 0;
    }
    EXPECT_GT(inside, 1000) << "rings " << rings;
    EXPECT_LT(inside, 9000) << "rings " << rings;
  }
}

TEST(HexNetwork, NeighborsMatchHashMapOracle) {
  for (const int rings : {0, 1, 2, 8, 18, 20}) {
    const HexNetwork net{rings};
    const auto expected = hashMapNeighbors(net);
    for (CellId id = 0; id < net.cellCount(); ++id) {
      ASSERT_EQ(net.neighbors(id), expected[id])
          << "rings " << rings << " cell " << id;
    }
  }
}

TEST(HexNetwork, CellAtRejectsWildPositions) {
  const HexNetwork net{2, 10.0};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double max = std::numeric_limits<double>::max();
  for (const double wild : {nan, inf, -inf, 1e300, -1e300, max, -max}) {
    EXPECT_FALSE(net.cellAt({wild, 0.0}).has_value()) << wild;
    EXPECT_FALSE(net.cellAt({0.0, wild}).has_value()) << wild;
    EXPECT_FALSE(net.cellAt({wild, wild}).has_value()) << wild;
  }
  // Just outside the disk, well inside int range: still no cell.
  EXPECT_FALSE(net.cellAt({0.0, 10.0 * (1.5 * 2 + 1.0) + 1e-9}).has_value());
  EXPECT_EQ(net.cellAt({0.0, 0.0}), std::optional<CellId>{0});

  const int imax = std::numeric_limits<int>::max();
  const int imin = std::numeric_limits<int>::min();
  for (const HexCoord h : {HexCoord{imax, 0}, HexCoord{imin, 0},
                           HexCoord{0, imax}, HexCoord{imin, imax},
                           HexCoord{3, 0}, HexCoord{2, 2}}) {
    EXPECT_EQ(net.cellAtHex(h), kInvalidCell) << h.q << "," << h.r;
  }
}

TEST(HexNetwork, CellAtHexReadsTheSpiralIds) {
  const HexNetwork net{8};
  for (const Cell& c : net.cells()) {
    ASSERT_EQ(net.cellAtHex(c.coord), c.id);
  }
}

TEST(HexNetwork, CellsWithinHopsMatchesAllPairsWalk) {
  for (const int rings : {0, 1, 2, 8}) {
    const HexNetwork net{rings};
    // Past the disk's diameter every cell reaches every other.
    for (const int hops : {0, 1, 2, 3, 2 * rings, 2 * rings + 5, 1 << 30}) {
      EXPECT_EQ(net.cellsWithinHops(hops), allPairsWithinHops(net, hops))
          << "rings " << rings << " hops " << hops;
    }
  }
}

TEST(HexNetwork, DistanceToStation) {
  const HexNetwork net{0, 10.0};
  EXPECT_DOUBLE_EQ(net.distanceToStationKm({3.0, 4.0}, 0), 5.0);
}

TEST(HexNetwork, StationLedgersAreIndependent) {
  HexNetwork net{1};
  net.station(0).allocate(1, 10, true);
  net.station(3).allocate(2, 5, false);
  EXPECT_EQ(net.station(0).occupiedBu(), 10);
  EXPECT_EQ(net.station(3).occupiedBu(), 5);
  EXPECT_EQ(net.station(1).occupiedBu(), 0);
  EXPECT_EQ(net.totalOccupiedBu(), 15);
  EXPECT_EQ(net.totalCapacityBu(), 7 * kPaperCellCapacityBu);
}

TEST(HexNetwork, NeighborsAreSymmetric) {
  const HexNetwork net{2};
  for (CellId a = 0; a < net.cellCount(); ++a) {
    for (const CellId b : net.neighbors(a)) {
      const auto& back = net.neighbors(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << "edge " << a << " -> " << b << " not symmetric";
    }
  }
}

TEST(CallStateNames, ToString) {
  EXPECT_EQ(toString(CallState::Requested), "requested");
  EXPECT_EQ(toString(CallState::Active), "active");
  EXPECT_EQ(toString(CallState::Completed), "completed");
  EXPECT_EQ(toString(CallState::Blocked), "blocked");
  EXPECT_EQ(toString(CallState::Dropped), "dropped");
}

TEST(CellGroupPartition, ContiguousBalancedAndComplete) {
  const HexNetwork net{2};  // 19 cells
  const CellGroupPartition part{net, 4};
  EXPECT_EQ(part.groups(), 4);
  // Monotone over the spiral ids (contiguous ranges), every group
  // non-empty, sizes within one of each other.
  std::vector<int> size(4, 0);
  int prev = 0;
  for (CellId c = 0; c < net.cellCount(); ++c) {
    const int g = part.groupOf(static_cast<CellId>(c));
    ASSERT_GE(g, prev);
    ASSERT_LT(g, 4);
    prev = g;
    ++size[static_cast<std::size_t>(g)];
  }
  for (const int s : size) EXPECT_GT(s, 0);
  const auto [lo, hi] = std::minmax_element(size.begin(), size.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST(CellGroupPartition, ClampsToCellCountAndRejectsNonsense) {
  const HexNetwork net{1};  // 7 cells
  EXPECT_EQ(CellGroupPartition(net, 64).groups(), 7);
  EXPECT_EQ(CellGroupPartition(net, 1).groups(), 1);
  EXPECT_THROW(CellGroupPartition(net, 0), std::invalid_argument);
}

TEST(CellGroupPartition, InteriorCellsHaveNoForeignNeighbours) {
  const HexNetwork net{2};
  const CellGroupPartition part{net, 3};
  std::size_t boundary = 0;
  for (CellId c = 0; c < net.cellCount(); ++c) {
    bool local = true;
    for (const CellId n : net.neighbors(c)) {
      if (part.groupOf(n) != part.groupOf(c)) local = false;
    }
    EXPECT_EQ(part.interior(c), local) << "cell " << c;
    if (!local) ++boundary;
  }
  EXPECT_EQ(part.boundaryCells(), boundary);
  // One group = no borders at all.
  const CellGroupPartition whole{net, 1};
  EXPECT_EQ(whole.boundaryCells(), 0u);
}

}  // namespace
}  // namespace facs::cellular
