#include "scc/shadow_cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cellular/policy_registry.hpp"

namespace facs::scc {
namespace {

using cellular::AdmissionContext;
using cellular::CallRequest;
using cellular::HexNetwork;
using cellular::ServiceClass;
using cellular::UserSnapshot;
using cellular::Vec2;

CallRequest makeRequest(cellular::CallId id, ServiceClass service,
                        Vec2 position, double speed, double angle,
                        cellular::CellId cell) {
  CallRequest r;
  r.call = id;
  r.user = id;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.snapshot.position = position;
  r.snapshot.speed_kmh = speed;
  r.snapshot.angle_deg = angle;
  r.snapshot.distance_km = position.norm();
  r.target_cell = cell;
  return r;
}

TEST(MotionFromSnapshot, InvertsAngleConvention) {
  UserSnapshot s;
  s.position = {-2.0, 0.0};
  s.speed_kmh = 36.0;
  s.angle_deg = 0.0;  // heading straight at the station
  const mobility::MotionState m = motionFromSnapshot(s, {0.0, 0.0});
  EXPECT_NEAR(m.heading_deg, 0.0, 1e-9);  // bearing to origin is 0 (east)

  s.angle_deg = 90.0;  // station 90 deg right of travel -> heading north
  EXPECT_NEAR(motionFromSnapshot(s, {0.0, 0.0}).heading_deg, 90.0, 1e-9);

  s.angle_deg = 180.0;  // directly away -> heading west
  EXPECT_NEAR(std::abs(motionFromSnapshot(s, {0.0, 0.0}).heading_deg), 180.0,
              1e-9);
}

TEST(ShadowCluster, ConfigValidation) {
  const HexNetwork net{1};
  SccConfig bad;
  bad.intervals = 0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.interval_s = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.threshold = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.cluster_radius = -1;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.sigma_base_km = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.mean_holding_s = 0.0;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
  bad = {};
  bad.rebuild_every = -1;
  EXPECT_THROW(ShadowClusterController(net, bad), std::invalid_argument);
}

TEST(ShadowCluster, EmptyNetworkAcceptsFirstCall) {
  const HexNetwork net{1};
  ShadowClusterController scc{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const auto d =
      scc.decide(makeRequest(1, ServiceClass::Video, {1.0, 0.0}, 50.0, 0.0, 0),
                 ctx);
  EXPECT_TRUE(d.accept);
  EXPECT_GT(d.score, 0.0);
}

TEST(ShadowCluster, TracksAdmittedCallsAndReleases) {
  const HexNetwork net{1};
  ShadowClusterController scc{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const CallRequest r =
      makeRequest(1, ServiceClass::Voice, {1.0, 0.0}, 50.0, 0.0, 0);
  EXPECT_EQ(scc.trackedCalls(), 0u);
  scc.onAdmitted(r, ctx);
  EXPECT_EQ(scc.trackedCalls(), 1u);
  scc.onReleased(r, ctx);
  EXPECT_EQ(scc.trackedCalls(), 0u);
}

TEST(ShadowCluster, ProjectedDemandDecaysOverHorizon) {
  const HexNetwork net{1};
  SccConfig cfg;
  cfg.intervals = 4;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};
  // A stationary video call in the centre cell.
  scc.onAdmitted(makeRequest(1, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0),
                 ctx);
  const DemandProfile p = scc.projectedDemand(0);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_GT(p[0], 5.0);  // most of the 10 BU projected for the near future
  for (std::size_t k = 1; k < p.size(); ++k) {
    EXPECT_LT(p[k], p[k - 1]) << "no decay at interval " << k;
  }
}

TEST(ShadowCluster, MovingCallShadowsTheDownstreamCell) {
  const HexNetwork net{1, 10.0};
  SccConfig cfg;
  cfg.intervals = 3;
  cfg.interval_s = 120.0;
  cfg.mean_holding_s = 1e6;  // isolate the spatial projection
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};

  // Fast call heading due east out of the centre cell. Ring cells are laid
  // out from the SW corner, so the eastern neighbour (axial +1,0) is id 3
  // and the western one (axial -1,0) is id 6.
  const cellular::CellId east = 3;
  const cellular::CellId west = 6;
  ASSERT_EQ(net.cell(east).coord, (cellular::HexCoord{1, 0}));
  ASSERT_EQ(net.cell(west).coord, (cellular::HexCoord{-1, 0}));
  CallRequest r = makeRequest(1, ServiceClass::Video, {5.0, 0.0}, 120.0,
                              /*angle=*/180.0, 0);  // away from BS0 = east
  scc.onAdmitted(r, ctx);

  const DemandProfile east_profile = scc.projectedDemand(east);
  const DemandProfile west_profile = scc.projectedDemand(west);
  // The eastern neighbour sees a growing shadow; the western one almost none.
  EXPECT_GT(east_profile.back(), west_profile.back() + 0.5);
}

TEST(ShadowCluster, SaturatedProjectionRejects) {
  const HexNetwork net{0};  // single 40 BU cell
  SccConfig cfg;
  cfg.cluster_radius = 0;
  cfg.mean_holding_s = 1e6;  // no decay: projections stay at full demand
  cfg.sigma_base_km = 2.0;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};

  // Fill the projection with four stationary 10-BU calls near the BS.
  for (cellular::CallId id = 1; id <= 4; ++id) {
    const auto r = makeRequest(id, ServiceClass::Video,
                               {0.1 * static_cast<double>(id), 0.0}, 0.0, 0.0, 0);
    EXPECT_TRUE(scc.decide(r, ctx).accept) << "call " << id;
    scc.onAdmitted(r, ctx);
  }
  // The fifth video call no longer fits the projected budget.
  const auto r5 =
      makeRequest(5, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0);
  EXPECT_FALSE(scc.decide(r5, ctx).accept);
}

TEST(ShadowCluster, ThresholdScalesBudget) {
  const HexNetwork net{0};
  SccConfig tight;
  tight.cluster_radius = 0;
  tight.mean_holding_s = 1e6;
  tight.threshold = 0.45;  // only 18 BU of projected budget
  ShadowClusterController scc{net, tight};
  const AdmissionContext ctx{net.station(0), 0.0};

  const auto r1 = makeRequest(1, ServiceClass::Video, {0.2, 0.0}, 0.0, 0.0, 0);
  EXPECT_TRUE(scc.decide(r1, ctx).accept);
  scc.onAdmitted(r1, ctx);
  const auto r2 = makeRequest(2, ServiceClass::Video, {0.3, 0.0}, 0.0, 0.0, 0);
  EXPECT_FALSE(scc.decide(r2, ctx).accept);  // 20 BU budget already shadowed
}

TEST(ShadowCluster, HardCapacityStillEnforced) {
  HexNetwork net{0};
  SccConfig cfg;
  cfg.cluster_radius = 0;
  cfg.mean_holding_s = 1.0;  // decays so fast the projection sees room
  cfg.interval_s = 60.0;
  ShadowClusterController scc{net, cfg};
  net.station(0).allocate(99, 35, true);
  const AdmissionContext ctx{net.station(0), 0.0};
  const auto r = makeRequest(1, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0);
  // Projection may look fine, but only 5 BU are actually free.
  EXPECT_FALSE(scc.decide(r, ctx).accept);
}

TEST(ShadowCluster, NameIsScc) {
  const HexNetwork net{0};
  ShadowClusterController scc{net};
  EXPECT_EQ(scc.name(), "SCC");
}

// ---------------------------------------------------------------------------
// Incremental demand cache: the per-(cell, interval) accumulators updated on
// arrival/departure/handoff must track the set of live shadows exactly.
// ---------------------------------------------------------------------------

TEST(ShadowCluster, DemandCacheDrainsToZeroOnRelease) {
  const HexNetwork net{1};
  ShadowClusterController scc{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  std::vector<CallRequest> admitted;
  for (cellular::CallId id = 1; id <= 8; ++id) {
    const auto r = makeRequest(id, ServiceClass::Voice,
                               {0.5 * static_cast<double>(id), 1.0}, 40.0,
                               30.0, 0);
    scc.onAdmitted(r, ctx);
    admitted.push_back(r);
  }
  for (const CallRequest& r : admitted) scc.onReleased(r, ctx);
  EXPECT_EQ(scc.trackedCalls(), 0u);
  for (const cellular::Cell& cell : net.cells()) {
    for (const double d : scc.projectedDemand(cell.id)) {
      // Floating subtraction of the exact contributions that were added:
      // residue is rounding noise (a few ULPs of the peak sum), never
      // leaked demand. Long-lived churn is bounded exactly by the periodic
      // rebuild (PeriodicRebuildZeroesChurnResidue below).
      EXPECT_NEAR(d, 0.0, 1e-12) << "cell " << cell.id;
    }
  }
}

TEST(ShadowCluster, PeriodicRebuildZeroesChurnResidue) {
  // Long churn: 512 admit/release cycles = 1024 shadow updates. The
  // subtract-on-release residue (~1e-12 per cycle) would otherwise
  // accumulate without bound; with rebuild_every = 64 the final release
  // lands on a rebuild boundary, so the accumulators are recomputed from
  // the now-empty shadow set — EXACTLY zero, not merely small.
  const HexNetwork net{1};
  SccConfig cfg;
  cfg.rebuild_every = 64;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};
  for (int cycle = 0; cycle < 512; ++cycle) {
    const auto r = makeRequest(
        1 + static_cast<cellular::CallId>(cycle % 7), ServiceClass::Video,
        {0.5 + 0.01 * (cycle % 100), 1.0 - 0.02 * (cycle % 50)},
        10.0 + (cycle % 60), static_cast<double>((cycle * 37) % 360 - 180),
        0);
    scc.onAdmitted(r, ctx);
    scc.onReleased(r, ctx);
  }
  EXPECT_EQ(scc.trackedCalls(), 0u);
  for (const cellular::Cell& cell : net.cells()) {
    for (const double d : scc.projectedDemand(cell.id)) {
      EXPECT_EQ(d, 0.0) << "cell " << cell.id;
    }
  }
}

TEST(ShadowCluster, RebuildPreservesLiveShadows) {
  // A rebuild must be invisible to decisions: accumulators recomputed from
  // the live set match the incrementally-maintained ones to rounding
  // noise, and keepers' demand survives the churn around them.
  const HexNetwork net{1};
  SccConfig with_rebuild;
  with_rebuild.rebuild_every = 16;
  SccConfig without_rebuild;
  without_rebuild.rebuild_every = 0;
  ShadowClusterController rebuilt{net, with_rebuild};
  ShadowClusterController incremental{net, without_rebuild};
  const AdmissionContext ctx{net.station(0), 0.0};

  const auto keeper =
      makeRequest(1000, ServiceClass::Video, {2.0, 0.0}, 60.0, 45.0, 0);
  rebuilt.onAdmitted(keeper, ctx);
  incremental.onAdmitted(keeper, ctx);
  for (int cycle = 0; cycle < 40; ++cycle) {  // crosses several boundaries
    const auto churn = makeRequest(1 + static_cast<cellular::CallId>(cycle),
                                   ServiceClass::Voice, {1.0, 1.0}, 20.0,
                                   0.0, 0);
    rebuilt.onAdmitted(churn, ctx);
    incremental.onAdmitted(churn, ctx);
    rebuilt.onReleased(churn, ctx);
    incremental.onReleased(churn, ctx);
  }
  EXPECT_EQ(rebuilt.trackedCalls(), 1u);
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = rebuilt.projectedDemand(cell.id);
    const DemandProfile b = incremental.projectedDemand(cell.id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, DemandCacheMatchesFreshControllerAfterChurn) {
  // Admit/release churn plus a handoff refresh must leave the accumulators
  // where a fresh controller tracking only the survivors would put them.
  const HexNetwork net{1};
  ShadowClusterController churned{net};
  const AdmissionContext ctx0{net.station(0), 0.0};

  const auto keeper =
      makeRequest(1, ServiceClass::Video, {2.0, 0.0}, 60.0, 45.0, 0);
  const auto churn =
      makeRequest(2, ServiceClass::Voice, {1.0, 1.0}, 20.0, 0.0, 0);
  churned.onAdmitted(keeper, ctx0);
  churned.onAdmitted(churn, ctx0);
  churned.onReleased(churn, ctx0);
  // Handoff: the same call re-admitted from a new cell with new kinematics
  // replaces its shadow instead of stacking a second one.
  auto moved = makeRequest(1, ServiceClass::Video, {4.0, 2.0}, 60.0, -30.0, 3);
  moved.is_handoff = true;
  churned.onAdmitted(moved, AdmissionContext{net.station(3), 90.0});
  EXPECT_EQ(churned.trackedCalls(), 1u);

  ShadowClusterController fresh{net};
  fresh.onAdmitted(moved, AdmissionContext{net.station(3), 90.0});

  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = churned.projectedDemand(cell.id);
    const DemandProfile b = fresh.projectedDemand(cell.id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, DecisionsMatchCacheState) {
  // decide() must read the same demand the cache reports: fill a tight
  // single-cell controller to its threshold and verify the flip point
  // coincides with the accumulated profile crossing the budget.
  const HexNetwork net{0};
  SccConfig cfg;
  cfg.cluster_radius = 0;
  cfg.mean_holding_s = 1e6;
  cfg.sigma_base_km = 2.0;
  ShadowClusterController scc{net, cfg};
  const AdmissionContext ctx{net.station(0), 0.0};
  cellular::CallId id = 1;
  while (scc.decide(makeRequest(id, ServiceClass::Video, {0.2, 0.0}, 0.0, 0.0,
                                0),
                    ctx)
             .accept) {
    scc.onAdmitted(makeRequest(id, ServiceClass::Video, {0.2, 0.0}, 0.0, 0.0,
                               0),
                   ctx);
    ++id;
    ASSERT_LT(id, 100) << "SCC never saturated";
  }
  const double budget =
      cfg.threshold * static_cast<double>(net.station(0).capacityBu());
  const DemandProfile profile = scc.projectedDemand(0);
  // The rejection happened because one more 10 BU shadow would overflow:
  // the cached near-term demand must already sit within 10 BU of budget.
  EXPECT_GT(profile[0] + 10.0, budget);
  EXPECT_LE(profile[0], budget + 1e-9);
}

TEST(ShadowCluster, BoundedReachLocalizesTheAccounting) {
  // rings = 2: the disk spans hex distance 2 from the centre. reach = 1
  // keeps a centre-anchored shadow out of ring-2 accumulators entirely,
  // while the unbounded controller leaks its Gaussian tail everywhere.
  const HexNetwork net{2};
  SccConfig bounded_cfg;
  bounded_cfg.reach = 1;
  ShadowClusterController bounded{net, bounded_cfg};
  ShadowClusterController unbounded{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const CallRequest r =
      makeRequest(1, ServiceClass::Video, {0.5, 0.0}, 0.0, 0.0, 0);
  bounded.onAdmitted(r, ctx);
  unbounded.onAdmitted(r, ctx);

  // Ring-2 cells (ids 7..18 in the spiral layout) stay untouched under the
  // bounded reach; the unbounded accumulation reaches them.
  const DemandProfile far_bounded = bounded.projectedDemand(8);
  const DemandProfile far_unbounded = unbounded.projectedDemand(8);
  for (const double d : far_bounded) EXPECT_EQ(d, 0.0);
  EXPECT_GT(far_unbounded[0], 0.0);

  // Inside the footprint both controllers account the identical value —
  // bounding the reach truncates, it does not redistribute.
  EXPECT_EQ(bounded.projectedDemand(0)[0], unbounded.projectedDemand(0)[0]);
  EXPECT_EQ(bounded.projectedDemand(1)[0], unbounded.projectedDemand(1)[0]);

  // Releases retract through the same footprint: everything returns to
  // exactly zero.
  bounded.onReleased(r, ctx);
  for (cellular::CellId c = 0; c < net.cellCount(); ++c) {
    for (const double d : bounded.projectedDemand(c)) EXPECT_EQ(d, 0.0);
  }
}

TEST(ShadowCluster, ReachSpanningTheDiskMatchesUnbounded) {
  // reach >= the disk diameter touches every cell, so the bounded and
  // unbounded controllers are the same model bit for bit.
  const HexNetwork net{1};
  SccConfig wide_cfg;
  wide_cfg.reach = 4;
  ShadowClusterController wide{net, wide_cfg};
  ShadowClusterController unbounded{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  for (int i = 1; i <= 6; ++i) {
    const CallRequest r = makeRequest(
        static_cast<cellular::CallId>(i), ServiceClass::Voice,
        {0.3 * i, 0.1 * i}, 20.0 * i, 15.0 * i, 0);
    wide.onAdmitted(r, ctx);
    unbounded.onAdmitted(r, ctx);
  }
  for (cellular::CellId c = 0; c < net.cellCount(); ++c) {
    const DemandProfile a = wide.projectedDemand(c);
    const DemandProfile b = unbounded.projectedDemand(c);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "cell " << c << " interval " << k;
    }
  }
}

TEST(ShadowCluster, ClustersAndFootprintsMatchAllPairsConstruction) {
  // The controller builds its neighbourhoods by walking hex offsets through
  // the network's axial table; the all-pairs hexDistance walk it replaced
  // must give the same ascending id lists.
  const HexNetwork net{8};
  for (const int radius : {0, 1, 2, 3}) {
    SccConfig cfg;
    cfg.cluster_radius = radius;
    cfg.reach = radius + 2;
    const ShadowClusterController scc{net, cfg};
    for (const cellular::Cell& center : net.cells()) {
      std::vector<cellular::CellId> cluster;
      std::vector<cellular::CellId> footprint;
      for (const cellular::Cell& cell : net.cells()) {
        const int d = cellular::hexDistance(center.coord, cell.coord);
        if (d <= cfg.cluster_radius) cluster.push_back(cell.id);
        if (d <= cfg.reach) footprint.push_back(cell.id);
      }
      ASSERT_EQ(scc.cluster(center.id), cluster)
          << "radius " << radius << " centre " << center.id;
      ASSERT_EQ(scc.footprint(center.id), footprint)
          << "reach " << cfg.reach << " anchor " << center.id;
    }
  }
}

// ---------------------------------------------------------------------------
// GroupLocal protocol: per-group stores, deferred cross-group deltas, the
// barrier drain, repartition re-keying and the reach-sizing audit.
// ---------------------------------------------------------------------------

TEST(ShadowCluster, CommitScopeFollowsReach) {
  const HexNetwork net{1};
  EXPECT_EQ(ShadowClusterController(net).commitScope(),
            cellular::CommitScope::Global);
  SccConfig bounded;
  bounded.reach = 2;
  EXPECT_EQ(ShadowClusterController(net, bounded).commitScope(),
            cellular::CommitScope::GroupLocal);
}

TEST(ShadowCluster, GroupedDemandMatchesUngroupedAfterTheBarrier) {
  // Same shadows, two accounting modes: the grouped controller applies
  // own-group rows live and folds cross-group rows at the barrier; once
  // drained, its accumulators must agree with the ungrouped controller's
  // (to float re-association noise — the fold changes the addition order,
  // never the terms).
  const HexNetwork net{2};  // 19 cells
  SccConfig cfg;
  cfg.reach = 2;
  ShadowClusterController grouped{net, cfg};
  ShadowClusterController ungrouped{net, cfg};
  grouped.onPartitionChanged(cellular::CellGroupPartition{net, 3});

  std::uint64_t expected_deltas = 0;
  for (cellular::CallId id = 1; id <= 6; ++id) {
    const cellular::CellId anchor = static_cast<cellular::CellId>(3 * id % 19);
    const auto r = makeRequest(id, ServiceClass::Video,
                               net.cell(anchor).center + Vec2{0.3, -0.2},
                               30.0 + 5.0 * static_cast<double>(id),
                               40.0 * static_cast<double>(id), anchor);
    grouped.onAdmitted(r, AdmissionContext{net.station(anchor), 0.0});
    ungrouped.onAdmitted(r, AdmissionContext{net.station(anchor), 0.0});
    ++expected_deltas;  // at least some of each footprint crosses a border
  }
  ASSERT_GE(expected_deltas, 1u);
  const cellular::BarrierDrainStats stats = grouped.onCommitBarrier(0.0);
  EXPECT_GT(stats.deltas_applied, 0u);
  EXPECT_EQ(stats.shadows_migrated, 0u);
  EXPECT_EQ(grouped.trackedCalls(), ungrouped.trackedCalls());
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = grouped.projectedDemand(cell.id);
    const DemandProfile b = ungrouped.projectedDemand(cell.id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, CrossGroupHandoffMigratesAtTheBarrier) {
  // A handoff whose refresh crosses a group boundary casts the new shadow
  // immediately but must leave the stale record for the barrier: the lane
  // acting for the target group may not touch a foreign store. After the
  // drain exactly one record remains and the accumulators match a fresh
  // controller tracking only the moved shadow.
  const HexNetwork net{2};
  SccConfig cfg;
  cfg.reach = 1;
  ShadowClusterController scc{net, cfg};
  const cellular::CellGroupPartition part{net, 3};
  scc.onPartitionChanged(part);

  const cellular::CellId from = 0;
  cellular::CellId to = cellular::kInvalidCell;
  for (const cellular::Cell& cell : net.cells()) {
    if (part.groupOf(cell.id) != part.groupOf(from)) {
      to = cell.id;
      break;
    }
  }
  ASSERT_NE(to, cellular::kInvalidCell);

  const auto first =
      makeRequest(7, ServiceClass::Video, net.cell(from).center, 60.0, 20.0,
                  from);
  scc.onAdmitted(first, AdmissionContext{net.station(from), 0.0});
  (void)scc.onCommitBarrier(0.0);

  auto moved = makeRequest(7, ServiceClass::Video, net.cell(to).center, 60.0,
                           -45.0, to);
  moved.is_handoff = true;
  scc.onAdmitted(moved, AdmissionContext{net.station(to), 30.0});
  // Until the barrier both records exist: the new shadow plus the stale
  // one awaiting its deterministic retraction.
  EXPECT_EQ(scc.trackedCalls(), 2u);
  const cellular::BarrierDrainStats stats = scc.onCommitBarrier(30.0);
  EXPECT_EQ(stats.shadows_migrated, 1u);
  EXPECT_EQ(scc.trackedCalls(), 1u);

  ShadowClusterController fresh{net, cfg};
  fresh.onAdmitted(moved, AdmissionContext{net.station(to), 30.0});
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = scc.projectedDemand(cell.id);
    const DemandProfile b = fresh.projectedDemand(cell.id);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, RepartitionConservesDemandExactly) {
  // Re-keying the stores moves RECORDS, never float sums: projected demand
  // before and after a boundary move must be bit-identical, and every
  // tracked call must survive the move.
  const HexNetwork net{2};
  SccConfig cfg;
  cfg.reach = 1;
  ShadowClusterController scc{net, cfg};
  scc.onPartitionChanged(cellular::CellGroupPartition{net, 2});
  for (cellular::CallId id = 1; id <= 9; ++id) {
    const cellular::CellId anchor = static_cast<cellular::CellId>(2 * id);
    const auto r = makeRequest(id, ServiceClass::Voice,
                               net.cell(anchor).center + Vec2{0.2, 0.1}, 25.0,
                               15.0 * static_cast<double>(id), anchor);
    scc.onAdmitted(r, AdmissionContext{net.station(anchor), 0.0});
  }
  (void)scc.onCommitBarrier(0.0);

  std::vector<DemandProfile> before;
  for (const cellular::Cell& cell : net.cells()) {
    before.push_back(scc.projectedDemand(cell.id));
  }
  const std::size_t tracked = scc.trackedCalls();

  // 2 -> 3 groups AND 3 -> back to 2: both directions must conserve.
  scc.onPartitionChanged(cellular::CellGroupPartition{net, 3});
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile after = scc.projectedDemand(cell.id);
    for (std::size_t k = 0; k < after.size(); ++k) {
      EXPECT_EQ(after[k], before[static_cast<std::size_t>(cell.id)][k])
          << "cell " << cell.id << " k " << k;
    }
  }
  EXPECT_EQ(scc.trackedCalls(), tracked);
  scc.onPartitionChanged(cellular::CellGroupPartition{net, 2});
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile after = scc.projectedDemand(cell.id);
    for (std::size_t k = 0; k < after.size(); ++k) {
      EXPECT_EQ(after[k], before[static_cast<std::size_t>(cell.id)][k])
          << "cell " << cell.id << " k " << k;
    }
  }
  EXPECT_EQ(scc.trackedCalls(), tracked);
}

TEST(ShadowCluster, GroupedRebuildPreservesLiveShadows) {
  // The per-group exact rebuild (barrier context) must be invisible, like
  // its ungrouped counterpart: a grouped controller with aggressive
  // rebuilds agrees with one that never rebuilds, to rounding noise.
  const HexNetwork net{2};
  SccConfig with_rebuild;
  with_rebuild.reach = 1;
  with_rebuild.rebuild_every = 8;
  SccConfig without_rebuild = with_rebuild;
  without_rebuild.rebuild_every = 0;
  ShadowClusterController rebuilt{net, with_rebuild};
  ShadowClusterController incremental{net, without_rebuild};
  const cellular::CellGroupPartition part{net, 3};
  rebuilt.onPartitionChanged(part);
  incremental.onPartitionChanged(part);

  const auto keeper =
      makeRequest(1000, ServiceClass::Video, net.cell(4).center, 50.0, 70.0,
                  4);
  rebuilt.onAdmitted(keeper, AdmissionContext{net.station(4), 0.0});
  incremental.onAdmitted(keeper, AdmissionContext{net.station(4), 0.0});
  for (int cycle = 0; cycle < 30; ++cycle) {
    const cellular::CellId anchor = static_cast<cellular::CellId>(cycle % 19);
    const auto churn = makeRequest(1 + static_cast<cellular::CallId>(cycle),
                                   ServiceClass::Voice,
                                   net.cell(anchor).center + Vec2{0.1, 0.1},
                                   20.0, 0.0, anchor);
    const AdmissionContext ctx{net.station(anchor), 1.0 * cycle};
    rebuilt.onAdmitted(churn, ctx);
    incremental.onAdmitted(churn, ctx);
    rebuilt.onReleased(churn, ctx);
    incremental.onReleased(churn, ctx);
    (void)rebuilt.onCommitBarrier(1.0 * cycle);
    (void)incremental.onCommitBarrier(1.0 * cycle);
  }
  EXPECT_EQ(rebuilt.trackedCalls(), 1u);
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = rebuilt.projectedDemand(cell.id);
    const DemandProfile b = incremental.projectedDemand(cell.id);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, RekeyToOneGroupAppliesEveryRowLive) {
  // Back at one group, the single store owns every row again: an admission
  // whose footprint crossed the old boundaries shows in every cell at
  // once, with no barrier, exactly as in a controller that never left the
  // one group it was built with.
  const HexNetwork net{2};
  SccConfig cfg;
  cfg.reach = 1;
  ShadowClusterController scc{net, cfg};
  ShadowClusterController fresh{net, cfg};
  scc.onPartitionChanged(cellular::CellGroupPartition{net, 3});
  const auto first = makeRequest(1, ServiceClass::Video, net.cell(0).center,
                                 40.0, 30.0, 0);
  scc.onAdmitted(first, AdmissionContext{net.station(0), 0.0});
  fresh.onAdmitted(first, AdmissionContext{net.station(0), 0.0});
  (void)scc.onCommitBarrier(0.0);

  scc.onPartitionChanged(cellular::CellGroupPartition{net, 1});
  const auto second = makeRequest(2, ServiceClass::Voice, net.cell(7).center,
                                  25.0, -60.0, 7);
  scc.onAdmitted(second, AdmissionContext{net.station(7), 1.0});
  fresh.onAdmitted(second, AdmissionContext{net.station(7), 1.0});
  EXPECT_EQ(scc.trackedCalls(), 2u);
  EXPECT_EQ(scc.onCommitBarrier(1.0).deltas_applied, 0u);
  for (const cellular::Cell& cell : net.cells()) {
    const DemandProfile a = scc.projectedDemand(cell.id);
    const DemandProfile b = fresh.projectedDemand(cell.id);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_NEAR(a[k], b[k], 1e-9) << "cell " << cell.id << " k " << k;
    }
  }
}

TEST(ShadowCluster, AuditWorkloadFlagsAnUndersizedReach) {
  const HexNetwork net{1, 2.0};
  cellular::WorkloadEnvelope fast;
  fast.v_max_kmh = 130.0;
  fast.cell_radius_km = 2.0;
  // 130 km/h over the default 90 s horizon is ~3.25 km — within one hex
  // pitch (sqrt(3) x 2 km), so the required reach is 2: reach=1 is
  // undersized, reach=2 is sound.
  SccConfig small;
  small.reach = 1;
  const std::string warning =
      ShadowClusterController(net, small).auditWorkload(fast);
  EXPECT_NE(warning.find("reach=1"), std::string::npos) << warning;
  EXPECT_NE(warning.find(">= 2"), std::string::npos) << warning;
  SccConfig sound;
  sound.reach = 2;
  EXPECT_TRUE(ShadowClusterController(net, sound).auditWorkload(fast).empty());
  // Unbounded accounting has no footprint to undersize; an empty envelope
  // gives no basis to audit.
  EXPECT_TRUE(ShadowClusterController(net).auditWorkload(fast).empty());
  EXPECT_TRUE(ShadowClusterController(net, small)
                  .auditWorkload(cellular::WorkloadEnvelope{})
                  .empty());
}

TEST(ShadowCluster, ReachSpecKeyAndValidation) {
  EXPECT_THROW(
      (void)ShadowClusterController(HexNetwork{1}, [] {
        SccConfig c;
        c.reach = -1;
        return c;
      }()),
      std::invalid_argument);
  // The registry spec wires reach through, and rejects bad values at
  // parse time.
  const auto& runtime = cellular::PolicyRuntime::defaultRuntime();
  const HexNetwork net{1};
  auto controller = runtime.makeFactory("scc:reach=2")(net);
  EXPECT_EQ(controller->name(), "SCC");
  EXPECT_THROW((void)runtime.makeFactory("scc:reach=-3"),
               cellular::PolicySpecError);
}

}  // namespace
}  // namespace facs::scc
