#include "cellular/radio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>

#include "radio_oracle.hpp"
#include "sim/rng.hpp"

namespace facs::cellular {
namespace {

TEST(DbHelpers, RoundTrips) {
  EXPECT_NEAR(dbToLinear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dbToLinear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(dbToLinear(-30.0), 0.001, 1e-12);
  EXPECT_NEAR(linearToDb(100.0), 20.0, 1e-12);
  for (double db = -120.0; db <= 50.0; db += 10.0) {
    EXPECT_NEAR(linearToDb(dbToLinear(db)), db, 1e-9);
    EXPECT_NEAR(mwToDbm(dbmToMw(db)), db, 1e-9);
  }
}

TEST(PathLoss, ReferencePointAndSlope) {
  PathLossParams p;
  p.reference_loss_db = 128.1;
  p.reference_distance_km = 1.0;
  p.exponent = 3.76;
  EXPECT_NEAR(pathLossDb(p, 1.0), 128.1, 1e-12);
  // One decade of distance adds 10 n dB.
  EXPECT_NEAR(pathLossDb(p, 10.0) - pathLossDb(p, 1.0), 37.6, 1e-9);
  // Monotone in distance.
  double prev = 0.0;
  for (double d = 0.05; d <= 20.0; d += 0.5) {
    const double loss = pathLossDb(p, d);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, ClampsNearFieldAndRejectsNegative) {
  PathLossParams p;
  EXPECT_DOUBLE_EQ(pathLossDb(p, 0.0), pathLossDb(p, p.min_distance_km));
  EXPECT_THROW((void)pathLossDb(p, -1.0), std::invalid_argument);
}

TEST(RadioModel, ValidatesConfig) {
  const HexNetwork net{0};
  RadioConfig bad;
  bad.activity_factor = 1.5;
  EXPECT_THROW(RadioModel(net, bad), std::invalid_argument);
  bad = {};
  bad.path_loss.exponent = 0.0;
  EXPECT_THROW(RadioModel(net, bad), std::invalid_argument);
  bad = {};
  bad.path_loss.min_distance_km = 0.0;
  EXPECT_THROW(RadioModel(net, bad), std::invalid_argument);
}

TEST(RadioModel, ReceivedPowerFallsWithDistance) {
  const HexNetwork net{0};
  const RadioModel radio{net};
  const double near = radio.receivedPowerDbm({0.5, 0.0}, 0);
  const double far = radio.receivedPowerDbm({8.0, 0.0}, 0);
  EXPECT_GT(near, far);
  // Sanity: 43 dBm through the default 100 dB reference loss at 1 km.
  EXPECT_NEAR(radio.receivedPowerDbm({1.0, 0.0}, 0), 43.0 - 100.0, 1e-9);
  // The 10 km cell edge keeps a usable noise-limited link budget.
  EXPECT_GT(radio.receivedPowerDbm({10.0, 0.0}, 0),
            radio.config().noise_floor_dbm + 10.0);
}

TEST(RadioModel, IdleNetworkIsNoiseLimited) {
  const HexNetwork net{1};
  const RadioModel radio{net};
  // No cell carries traffic: SINR = SNR = Prx - noise floor.
  const double sinr = radio.sinrDb({1.0, 0.0}, 0);
  const double snr = radio.receivedPowerDbm({1.0, 0.0}, 0) -
                     radio.config().noise_floor_dbm;
  EXPECT_NEAR(sinr, snr, 1e-9);
}

TEST(RadioModel, LoadedNeighborDegradesSinr) {
  HexNetwork net{1};
  const RadioModel radio{net};
  const Vec2 user{6.0, 0.0};  // toward the eastern neighbour
  const double quiet = radio.sinrDb(user, 0);
  net.station(3).allocate(1, 40, true);  // east cell fully loaded
  const double loud = radio.sinrDb(user, 0);
  EXPECT_LT(loud, quiet - 3.0);  // several dB of co-channel interference
}

TEST(RadioModel, SinrDegradesGraduallyWithNeighborUtilization) {
  HexNetwork net{1};
  const RadioModel radio{net};
  const Vec2 user{6.0, 0.0};
  double prev = radio.sinrDb(user, 0);
  for (const BandwidthUnits bu : {10, 20, 30, 40}) {
    HexNetwork fresh{1};
    fresh.station(3).allocate(1, bu, true);
    const RadioModel r2{fresh};
    const double sinr = r2.sinrDb(user, 0);
    EXPECT_LT(sinr, prev);
    prev = sinr;
  }
}

TEST(RadioModel, CellEdgeIsWorseThanCellCentre) {
  HexNetwork net{1};
  // All neighbours half loaded.
  for (CellId id = 1; id < 7; ++id) net.station(id).allocate(id, 20, true);
  const RadioModel radio{net};
  EXPECT_GT(radio.sinrDb({0.5, 0.0}, 0), radio.sinrDb({8.0, 0.0}, 0));
}

// ---------------------------------------------- gain tables & footprint --

/// Loads every station with a different partial utilization so no
/// interferer drops out of the sum and no two cells look alike.
void loadStations(HexNetwork& net) {
  CallId call = 1;
  for (const Cell& c : net.cells()) {
    const BandwidthUnits bu =
        1 + static_cast<BandwidthUnits>((c.id * 7) % 29);
    net.station(c.id).allocate(call++, bu, true);
  }
}

TEST(RadioModel, GainTableWalkMatchesScalarReferenceBitForBit) {
  // The precomputed-table sinrDb must produce the SAME floating-point sum
  // as a naive ascending-id walk of the factored gain-constant formula
  // power_mw = C * (d^2)^(-n/2): table layout and footprint bookkeeping may
  // not move a single bit at radius 0.
  HexNetwork net{2, 1.5};
  loadStations(net);
  const RadioModel radio{net};
  const RadioConfig& rc = radio.config();
  const PathLossParams& pl = rc.path_loss;
  const double gain_c =
      dbmToMw(rc.tx_power_dbm - pl.reference_loss_db +
              10.0 * pl.exponent * std::log10(pl.reference_distance_km));
  const double min_d2 = pl.min_distance_km * pl.min_distance_km;
  const auto link_mw = [&](Vec2 pos, CellId cell) {
    const double dx = pos.x - net.cell(cell).center.x;
    const double dy = pos.y - net.cell(cell).center.y;
    const double d2 = std::max(dx * dx + dy * dy, min_d2);
    return gain_c * std::pow(d2, -0.5 * pl.exponent);
  };
  for (const Cell& serving : net.cells()) {
    const Vec2 pos{serving.center.x + 0.4, serving.center.y - 0.3};
    double interference = dbmToMw(rc.noise_floor_dbm);
    for (const Cell& other : net.cells()) {
      if (other.id == serving.id) continue;
      const double activity =
          rc.activity_factor * net.station(other.id).utilization();
      if (activity <= 0.0) continue;
      interference += activity * link_mw(pos, other.id);
    }
    const double reference =
        linearToDb(link_mw(pos, serving.id) / interference);
    EXPECT_EQ(radio.sinrDb(pos, serving.id), reference)
        << "serving=" << serving.id;
    // And the legacy log10+pow chain agrees to numerical noise: factoring
    // out the gain constant is a reformulation, not a model change.
    double legacy_i = dbmToMw(rc.noise_floor_dbm);
    for (const Cell& other : net.cells()) {
      if (other.id == serving.id) continue;
      const double activity =
          rc.activity_factor * net.station(other.id).utilization();
      if (activity <= 0.0) continue;
      legacy_i += activity *
                  dbmToMw(rc.tx_power_dbm -
                          pathLossDb(pl, net.distanceToStationKm(pos, other.id)));
    }
    const double legacy = linearToDb(
        dbmToMw(rc.tx_power_dbm -
                pathLossDb(pl, net.distanceToStationKm(pos, serving.id))) /
        legacy_i);
    EXPECT_NEAR(radio.sinrDb(pos, serving.id), legacy, 1e-9)
        << "serving=" << serving.id;
  }
}

TEST(RadioModel, SinrDbWithLiveUtilizationIsTheLiveSinr) {
  // The functor variant with a live-ledger reader IS sinrDb — same walk,
  // same bits. This is what lets the grouped SIR controller swap in a
  // snapshot reader without touching the arithmetic.
  HexNetwork net{2, 1.5};
  loadStations(net);
  const RadioModel radio{net};
  for (const Cell& serving : net.cells()) {
    const Vec2 pos{serving.center.x - 0.2, serving.center.y + 0.5};
    const double live = radio.sinrDbWith(pos, serving.id, [&](CellId cell) {
      return net.station(cell).utilization();
    });
    EXPECT_EQ(radio.sinrDb(pos, serving.id), live);
  }
}

TEST(RadioModel, InterferersHonorTheHopRadius) {
  const HexNetwork net{2, 1.5};
  RadioConfig rc;
  rc.interference_radius_hops = 1;
  const RadioModel bounded{net, rc};
  const RadioModel exact{net};
  // Radius 0: everyone else interferes. Radius 1: only the hex ring.
  EXPECT_EQ(exact.interferersOf(0).size(), net.cellCount() - 1);
  EXPECT_EQ(bounded.interferersOf(0).size(), 6u);
  for (const Cell& serving : net.cells()) {
    CellId prev = 0;
    bool first = true;
    for (const CellId id : bounded.interferersOf(serving.id)) {
      EXPECT_NE(id, serving.id);
      EXPECT_LE(hexDistance(net.cell(serving.id).coord, net.cell(id).coord),
                1);
      if (!first) EXPECT_GT(id, prev);  // canonical ascending-id order
      prev = id;
      first = false;
    }
  }
  EXPECT_GT(bounded.truncationTailBoundMw(), 0.0);
  EXPECT_EQ(exact.truncationTailBoundMw(), 0.0);
}

TEST(RadioModel, FootprintCoveringTheWholeDiskIsExact) {
  // A radius at least the disk diameter excludes nothing: the interferer
  // tables are identical, the tail bound is zero and every SINR matches
  // the unbounded model bit for bit.
  HexNetwork net{1, 2.0};
  loadStations(net);
  RadioConfig rc;
  rc.interference_radius_hops = 2;  // rings=1 disk has diameter 2
  const RadioModel bounded{net, rc};
  const RadioModel exact{net};
  EXPECT_EQ(bounded.truncationTailBoundMw(), 0.0);
  for (const Cell& serving : net.cells()) {
    const Vec2 pos{serving.center.x + 0.3, serving.center.y + 0.1};
    EXPECT_EQ(bounded.sinrDb(pos, serving.id),
              exact.sinrDb(pos, serving.id));
  }
}

TEST(RadioModel, TruncatedTailBoundHoldsAcrossRandomPlacements) {
  // Property test for the audit's worst-case bound: for ANY utilization
  // vector and ANY user position inside the serving cell, the interference
  // the bounded footprint discards is at most truncationTailBoundMw().
  const HexNetwork net{2, 1.5};
  RadioConfig rc;
  rc.interference_radius_hops = 1;
  const RadioModel bounded{net, rc};
  const RadioModel exact{net};
  const double bound = bounded.truncationTailBoundMw();
  ASSERT_GT(bound, 0.0);
  sim::Rng rng{20250808};
  std::uniform_real_distribution<double> uni{0.0, 1.0};
  std::vector<double> util(net.cellCount());
  for (int trial = 0; trial < 200; ++trial) {
    for (double& u : util) u = uni(rng);
    const auto reader = [&](CellId cell) { return util[cell]; };
    const CellId serving = static_cast<CellId>(
        static_cast<std::size_t>(uni(rng) * 0.999 * net.cellCount()));
    // A point inside the serving hex: within the inradius (~0.866 R).
    const double r = 0.85 * net.cellRadiusKm() * uni(rng);
    const double a = 2.0 * 3.14159265358979 * uni(rng);
    const Vec2 pos{net.cell(serving).center.x + r * std::cos(a),
                   net.cell(serving).center.y + r * std::sin(a)};
    const double signal =
        dbmToMw(exact.receivedPowerDbm(pos, serving));
    const double i_full =
        signal / dbToLinear(exact.sinrDbWith(pos, serving, reader));
    const double i_trunc =
        signal / dbToLinear(bounded.sinrDbWith(pos, serving, reader));
    const double error_mw = i_full - i_trunc;
    EXPECT_GE(error_mw, -1e-18) << "trial " << trial;
    EXPECT_LE(error_mw, bound * (1.0 + 1e-9)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace facs::cellular
