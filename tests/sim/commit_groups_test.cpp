/// \file commit_groups_test.cpp
/// Contracts of the two-level commit scheme (commit groups + cross-group
/// handoff reservations):
///
///  * commit_groups = 1 is THE serialized commit phase: bit-identical at
///    any shard count (and, via the untouched sharding suite, to the
///    pre-grouped engine), with zero reservation traffic.
///  * commit_groups > 1 is deterministic: the same (config, seed, groups)
///    reproduces the same bits on every run and at every shard count —
///    group lanes and the reservation barrier may only move work, never
///    change an outcome for a fixed grouping.
///  * Cross-group handoffs flow through reservations, and contended claims
///    (several groups after the last bandwidth units of one cell) resolve
///    deterministically in canonical (time, call) order.
///  * Policies with a Global commit scope degrade to one lane; GroupLocal
///    policies (SCC with a bounded reach) keep the full lane count, defer
///    cross-group writes through the barrier drain, and stay bit-identical
///    across shard counts — including under epoch re-partitioning, where
///    their per-group stores re-key deterministically.
///  * The load-aware (weighted) partition is deterministic too — seed-
///    stable and shard-invariant at every group count — and on a skewed
///    hotspot its per-lane committed-event split is measurably flatter
///    than the contiguous-by-id mapping's.
///  * Epoch re-partitioning follows a migrating hotspot without changing
///    any outcome invariant: the books still balance, and the run is a
///    pure function of (config, seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "cellular/network.hpp"
#include "serve/mutation.hpp"
#include "sim/reservation.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

/// The sharding suite's contested scenario: GPS-tracked decisions,
/// accepted and dropped handoffs, coverage exits, warmup — now also a
/// dense border traffic source for the group lanes.
SimulationConfig contestedConfig() {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.total_requests = 120;
  cfg.arrival_window_s = 400.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.warmup_s = 50.0;
  cfg.seed = 20240731;
  cfg.scenario.speed_min_kmh = 30.0;
  cfg.scenario.speed_max_kmh = 110.0;
  cfg.scenario.distance_max_km = 2.0;
  cfg.scenario.tracking_window_s = 10.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  cfg.scenario.gps_error_m = 10.0;
  return cfg;
}

void expectBitIdentical(const Metrics& a, const Metrics& b,
                        const std::string& label) {
  EXPECT_EQ(a.new_requests, b.new_requests) << label;
  EXPECT_EQ(a.new_accepted, b.new_accepted) << label;
  EXPECT_EQ(a.new_blocked, b.new_blocked) << label;
  EXPECT_EQ(a.handoff_requests, b.handoff_requests) << label;
  EXPECT_EQ(a.handoff_accepted, b.handoff_accepted) << label;
  EXPECT_EQ(a.handoff_dropped, b.handoff_dropped) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.class_requests, b.class_requests) << label;
  EXPECT_EQ(a.class_accepted, b.class_accepted) << label;
  EXPECT_EQ(a.busy_bu_seconds, b.busy_bu_seconds) << label;
  EXPECT_EQ(a.observed_span_s, b.observed_span_s) << label;
  EXPECT_EQ(a.engine_events, b.engine_events) << label;
  EXPECT_EQ(a.commit_groups, b.commit_groups) << label;
  EXPECT_EQ(a.reservations_posted, b.reservations_posted) << label;
  EXPECT_EQ(a.reservations_admitted, b.reservations_admitted) << label;
  EXPECT_EQ(a.reservations_dropped, b.reservations_dropped) << label;
  // The per-lane event split, the repartition counts and the GroupLocal
  // barrier traffic are part of the deterministic surface: identical bits
  // at every shard count.
  EXPECT_EQ(a.lane_events, b.lane_events) << label;
  EXPECT_EQ(a.repartitions, b.repartitions) << label;
  EXPECT_EQ(a.repartitions_skipped, b.repartitions_skipped) << label;
  EXPECT_EQ(a.demand_deltas, b.demand_deltas) << label;
  EXPECT_EQ(a.shadow_migrations, b.shadow_migrations) << label;
}

/// max/mean over the per-lane committed-event counts — 1.0 is a perfectly
/// flat split.
double eventImbalance(const Metrics& m) {
  if (m.lane_events.empty()) return 1.0;
  const std::uint64_t total = std::accumulate(
      m.lane_events.begin(), m.lane_events.end(), std::uint64_t{0});
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(m.lane_events.size());
  const std::uint64_t top =
      *std::max_element(m.lane_events.begin(), m.lane_events.end());
  return static_cast<double>(top) / mean;
}

/// The contested disk with one 12x heavy-traffic hotspot cell and a 2x
/// ring — the skew the load-aware partition exists for.
SimulationConfig hotspotConfig() {
  SimulationConfig cfg = contestedConfig();
  cfg.total_requests = 600;
  cfg.warmup_s = 0.0;
  for (cellular::CellId c = 0; c < 7; ++c) {
    CellOverride o;
    o.cell = c;
    o.arrival_scale = (c == 0) ? 12.0 : 2.0;
    if (c == 0) o.mix = cellular::TrafficMix{0.2, 0.3, 0.5};
    cfg.cell_overrides.push_back(o);
  }
  return cfg;
}

TEST(CommitGroups, GroupsOneIsBitIdenticalAcrossShardCounts) {
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 1;
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("guard:8").run();
  EXPECT_EQ(serial.commit_groups, 1);
  EXPECT_EQ(serial.reservations_posted, 0u);
  for (const int shards : {4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
    expectBitIdentical(serial, m,
                       "groups=1 shards=" + std::to_string(shards));
  }
  // Not setting commit_groups at all IS groups=1 — the default engine.
  SimulationConfig untouched = contestedConfig();
  untouched.shards = 4;
  const Metrics d = SimulationBuilder{untouched}.policy("guard:8").run();
  expectBitIdentical(serial, d, "default config vs explicit groups=1");
}

TEST(CommitGroups, GroupedRunsAreShardInvariantAndSeedStable) {
  for (const char* policy : {"guard:8", "facs"}) {
    for (const int groups : {2, 4}) {
      SimulationConfig cfg = contestedConfig();
      cfg.commit_groups = groups;
      cfg.shards = 1;
      const Metrics first = SimulationBuilder{cfg}.policy(policy).run();
      EXPECT_EQ(first.commit_groups, groups) << policy;
      for (const int shards : {2, 4}) {
        cfg.shards = shards;
        const Metrics m = SimulationBuilder{cfg}.policy(policy).run();
        expectBitIdentical(first, m,
                           std::string{policy} + " groups=" +
                               std::to_string(groups) + " shards=" +
                               std::to_string(shards));
      }
      // Seed stability: a second identical run reproduces the bits.
      cfg.shards = 1;
      const Metrics again = SimulationBuilder{cfg}.policy(policy).run();
      expectBitIdentical(first, again,
                         std::string{policy} + " repeated groups=" +
                             std::to_string(groups));
    }
  }
}

TEST(CommitGroups, CrossGroupHandoffsFlowThroughReservations) {
  // One group per cell: every handoff crosses a group border, so the
  // entire handoff stream is reservation traffic — and the books must
  // balance: posted = admitted + dropped, and every counted handoff
  // request is either an in-lane commit (none here) or a reservation.
  SimulationConfig cfg = contestedConfig();
  cfg.warmup_s = 0.0;  // counters and reservation gates see everything
  cfg.commit_groups = 7;
  const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
  EXPECT_EQ(m.commit_groups, 7);
  ASSERT_GT(m.handoff_requests, 0);
  EXPECT_GT(m.reservations_posted, 0u);
  EXPECT_EQ(m.reservations_posted,
            m.reservations_admitted + m.reservations_dropped);
  EXPECT_EQ(m.reservations_posted,
            static_cast<std::uint64_t>(m.handoff_requests));
  EXPECT_EQ(m.handoff_requests, m.handoff_accepted + m.handoff_dropped);
}

TEST(CommitGroups, ContendedLastUnitsResolveDeterministically) {
  // Starve the cells (two voice calls fill one) so reservation claims
  // regularly fight over the last units at the barrier. The winner must be
  // the same on every run and at every shard count — canonical (time,
  // call) drain order, not thread scheduling, decides.
  SimulationConfig cfg = contestedConfig();
  cfg.capacity_bu = 10;
  cfg.total_requests = 200;
  cfg.warmup_s = 0.0;
  cfg.commit_groups = 7;
  cfg.scenario.mix = cellular::TrafficMix{0.0, 1.0, 0.0};  // 5 BU voice
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("cs").run();
  ASSERT_GT(first.reservations_posted, 0u);
  ASSERT_GT(first.reservations_dropped, 0u)
      << "scenario too roomy to contend the last units";
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("cs").run();
    expectBitIdentical(first, m,
                       "contended shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = SimulationBuilder{cfg}.policy("cs").run();
  expectBitIdentical(first, again, "contended repeat");
}

TEST(CommitGroups, GlobalScopePoliciesDegradeToOneLane) {
  // SCC at reach=0 writes accumulators across EVERY cell — no partition
  // confines it, CommitScope::Global — so a grouped config must serialize
  // (and report that it did), with results identical to an explicit
  // groups=1 run. (A bounded reach upgrades the scope to GroupLocal — the
  // GroupLocalScc tests below.)
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 4;
  const Metrics grouped = SimulationBuilder{cfg}.policy("scc").run();
  EXPECT_EQ(grouped.commit_groups, 1);
  EXPECT_EQ(grouped.reservations_posted, 0u);
  cfg.commit_groups = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("scc").run();
  expectBitIdentical(serial, grouped, "scc grouped vs serial");
}

// ------------------------------------------------ GroupLocal policy commits

TEST(GroupLocalScc, CommitsFromAllLanesAndStaysDeterministic) {
  // The tentpole contract: a bounded reach makes SCC GroupLocal, so the
  // engine keeps the full configured lane count (no degrade), cross-group
  // shadow rows flow through the deferred-delta drain (observable as
  // demand_deltas), and the run stays a pure function of (config, seed) —
  // bit-identical at every shard count and on repeats.
  for (const int groups : {2, 4}) {
    SimulationConfig cfg = contestedConfig();
    cfg.commit_groups = groups;
    cfg.shards = 1;
    const Metrics first = SimulationBuilder{cfg}.policy("scc:reach=2").run();
    EXPECT_EQ(first.commit_groups, groups);
    EXPECT_GT(first.demand_deltas, 0u)
        << "a reach-2 footprint on a 7-cell disk must cross group borders";
    for (const int shards : {2, 4}) {
      cfg.shards = shards;
      const Metrics m = SimulationBuilder{cfg}.policy("scc:reach=2").run();
      expectBitIdentical(first, m, "scc groups=" + std::to_string(groups) +
                                       " shards=" + std::to_string(shards));
    }
    cfg.shards = 1;
    const Metrics again = SimulationBuilder{cfg}.policy("scc:reach=2").run();
    expectBitIdentical(first, again,
                       "scc repeated groups=" + std::to_string(groups));
  }
}

TEST(GroupLocalScc, GroupsOneAppliesEverythingLive) {
  // At one group the single store owns every row: no deferred deltas, no
  // migrations, no reservations, bit-identical at every shard count.
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 1;
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("scc:reach=2").run();
  EXPECT_EQ(serial.commit_groups, 1);
  EXPECT_EQ(serial.reservations_posted, 0u);
  EXPECT_EQ(serial.demand_deltas, 0u);
  EXPECT_EQ(serial.shadow_migrations, 0u);
  cfg.shards = 4;
  const Metrics sharded = SimulationBuilder{cfg}.policy("scc:reach=2").run();
  expectBitIdentical(serial, sharded, "scc:reach=2 groups=1 shards=4");
}

TEST(GroupLocalScc, ContendedCrossGroupClaimsResolveDeterministically) {
  // Starved cells + one group per cell: every handoff is a cross-group
  // reservation and SCC's shadow traffic crosses borders constantly. The
  // contended outcomes must still be canonical — same bits on every run
  // and at every shard count.
  SimulationConfig cfg = contestedConfig();
  cfg.capacity_bu = 10;
  cfg.total_requests = 200;
  cfg.warmup_s = 0.0;
  cfg.commit_groups = 7;
  cfg.scenario.mix = cellular::TrafficMix{0.0, 1.0, 0.0};  // 5 BU voice
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("scc:reach=1").run();
  EXPECT_EQ(first.commit_groups, 7);
  ASSERT_GT(first.reservations_posted, 0u);
  ASSERT_GT(first.demand_deltas, 0u);
  EXPECT_EQ(first.reservations_posted,
            first.reservations_admitted + first.reservations_dropped);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("scc:reach=1").run();
    expectBitIdentical(first, m,
                       "scc contended shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = SimulationBuilder{cfg}.policy("scc:reach=1").run();
  expectBitIdentical(first, again, "scc contended repeat");
}

TEST(GroupLocalScc, SurvivesAMigratingHotspotRepartition) {
  // The hard composition: grouped SCC + weighted partition + epoch
  // re-partitioning + a hotspot that MOVES. Boundary moves re-key the
  // per-group shadow stores mid-run; the books must still balance, and
  // the whole run must stay bit-identical across shard counts and
  // repeats — shadows migrate deterministically or not at all.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 50.0;
  serve::ScenarioMutation cool;
  cool.at_s = 180.0;
  cool.op = serve::MutationOp::ArrivalScale;
  cool.cell = 0;
  cool.scale = 1.0;
  serve::ScenarioMutation heat;
  heat.at_s = 180.0;
  heat.op = serve::MutationOp::ArrivalScale;
  heat.cell = 4;
  heat.scale = 12.0;
  cfg.mutations.push_back(cool);
  cfg.mutations.push_back(heat);
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("scc:reach=2").run();
  EXPECT_EQ(first.commit_groups, 4);
  EXPECT_GT(first.repartitions, 0)
      << "a migrating hotspot must trigger at least one boundary re-draw";
  EXPECT_GT(first.demand_deltas, 0u);
  EXPECT_EQ(first.mutations_applied, 2);
  EXPECT_EQ(first.reservations_posted,
            first.reservations_admitted + first.reservations_dropped);
  EXPECT_EQ(first.handoff_requests,
            first.handoff_accepted + first.handoff_dropped);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("scc:reach=2").run();
    expectBitIdentical(first, m,
                       "scc migrating shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = SimulationBuilder{cfg}.policy("scc:reach=2").run();
  expectBitIdentical(first, again, "scc migrating repeat");
}

TEST(GroupLocalScc, RepartitionHysteresisSkipsLowGainEpochs) {
  // A STEADY hotspot: after the initial weighted draw the projected
  // improvement of later epochs is noise, so the hysteresis gate must
  // skip them (counted, deterministic) instead of churning the policy
  // stores through pointless re-keys.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 40.0;
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("guard:8").run();
  EXPECT_GT(first.repartitions_skipped, 0)
      << "a steady hotspot must not clear the hysteresis bar every epoch";
  cfg.shards = 4;
  const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
  expectBitIdentical(first, m, "hysteresis shards=4");
}

// -------------------------------------------------- GroupLocal SIR commits

TEST(GroupLocalSir, CommitsFromAllLanesAndStaysDeterministic) {
  // The bounded-footprint SIR contract: `sir:radius=R` is GroupLocal, so
  // the engine keeps the full configured lane count (no Global degrade),
  // the barrier-refreshed utilization snapshot shows up as demand_deltas,
  // and the run is a pure function of (config, seed) — bit-identical at
  // every shard count and on repeats.
  for (const int groups : {2, 4}) {
    SimulationConfig cfg = contestedConfig();
    cfg.commit_groups = groups;
    cfg.shards = 1;
    const Metrics first =
        SimulationBuilder{cfg}.policy("sir:radius=1").run();
    EXPECT_EQ(first.commit_groups, groups);
    EXPECT_GT(first.demand_deltas, 0u)
        << "utilizations move every window: the snapshot refresh must "
           "report changed cells";
    for (const int shards : {2, 4}) {
      cfg.shards = shards;
      const Metrics m = SimulationBuilder{cfg}.policy("sir:radius=1").run();
      expectBitIdentical(first, m, "sir groups=" + std::to_string(groups) +
                                       " shards=" + std::to_string(shards));
    }
    cfg.shards = 1;
    const Metrics again = SimulationBuilder{cfg}.policy("sir:radius=1").run();
    expectBitIdentical(first, again,
                       "sir repeated groups=" + std::to_string(groups));
  }
}

TEST(GroupLocalSir, RadiusZeroStaysGlobalAndOnTheLegacyBits) {
  // The exact whole-network sum cannot be partition-confined: a grouped
  // config over plain `sir` must serialize to one lane with results (and
  // metrics) identical to an explicit groups=1 run — the pre-grouping
  // engine's bits, at any shard count.
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 4;
  const Metrics grouped = SimulationBuilder{cfg}.policy("sir").run();
  EXPECT_EQ(grouped.commit_groups, 1);
  EXPECT_EQ(grouped.reservations_posted, 0u);
  EXPECT_EQ(grouped.demand_deltas, 0u);
  cfg.commit_groups = 1;
  for (const int shards : {1, 4}) {
    cfg.shards = shards;
    const Metrics serial = SimulationBuilder{cfg}.policy("sir").run();
    expectBitIdentical(serial, grouped,
                       "sir radius=0 shards=" + std::to_string(shards));
  }
}

TEST(GroupLocalSir, GroupsOneReadsEverythingLive) {
  // At one group the snapshot never engages: decide() reads live ledgers
  // exactly like the Global path, with zero barrier traffic — and the run
  // is bit-identical at every shard count.
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 1;
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("sir:radius=1").run();
  EXPECT_EQ(serial.commit_groups, 1);
  EXPECT_EQ(serial.demand_deltas, 0u);
  EXPECT_EQ(serial.reservations_posted, 0u);
  cfg.shards = 4;
  const Metrics sharded = SimulationBuilder{cfg}.policy("sir:radius=1").run();
  expectBitIdentical(serial, sharded, "sir:radius=1 groups=1 shards=4");
}

TEST(GroupLocalSir, SurvivesAMigratingHotspotRepartition) {
  // Grouped SIR + weighted partition + epoch re-partitioning + a hotspot
  // that MOVES: boundary re-draws re-key the group map mid-run and re-prime
  // the utilization snapshot. The books must still balance and the whole
  // run must stay bit-identical across shard counts and repeats.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 50.0;
  serve::ScenarioMutation cool;
  cool.at_s = 180.0;
  cool.op = serve::MutationOp::ArrivalScale;
  cool.cell = 0;
  cool.scale = 1.0;
  serve::ScenarioMutation heat;
  heat.at_s = 180.0;
  heat.op = serve::MutationOp::ArrivalScale;
  heat.cell = 4;
  heat.scale = 12.0;
  cfg.mutations.push_back(cool);
  cfg.mutations.push_back(heat);
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("sir:radius=1").run();
  EXPECT_EQ(first.commit_groups, 4);
  EXPECT_GT(first.repartitions, 0)
      << "a migrating hotspot must trigger at least one boundary re-draw";
  EXPECT_GT(first.demand_deltas, 0u);
  EXPECT_EQ(first.mutations_applied, 2);
  EXPECT_EQ(first.reservations_posted,
            first.reservations_admitted + first.reservations_dropped);
  EXPECT_EQ(first.handoff_requests,
            first.handoff_accepted + first.handoff_dropped);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("sir:radius=1").run();
    expectBitIdentical(first, m,
                       "sir migrating shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = SimulationBuilder{cfg}.policy("sir:radius=1").run();
  expectBitIdentical(first, again, "sir migrating repeat");
}

TEST(CommitGroups, GroupCountClampsToCellCount) {
  // 7 cells, 64 requested lanes: the partition clamps, the run reports
  // the effective count, and the result is exactly the 7-lane run.
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 64;
  const Metrics wide = SimulationBuilder{cfg}.policy("guard:8").run();
  EXPECT_EQ(wide.commit_groups, 7);
  cfg.commit_groups = 7;
  const Metrics exact = SimulationBuilder{cfg}.policy("guard:8").run();
  expectBitIdentical(exact, wide, "groups=64 over 7 cells");
}

TEST(CommitGroups, ConfigValidatesAndBuilderSurfacesTheKnob) {
  SimulationConfig cfg;
  cfg.commit_groups = 0;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.commit_groups = kMaxShards + 1;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  const SimulationConfig built = SimulationBuilder{}.commitGroups(6).build();
  EXPECT_EQ(built.commit_groups, 6);
}

TEST(CommitGroups, MetricsJsonCarriesTheGroupFields) {
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 7;
  cfg.warmup_s = 0.0;
  const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
  const std::string json = m.toJson();
  EXPECT_NE(json.find("\"commit_groups\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"reservations_posted\": "), std::string::npos);
  EXPECT_NE(json.find("\"reservations_admitted\": "), std::string::npos);
  EXPECT_NE(json.find("\"reservations_dropped\": "), std::string::npos);
}

// ------------------------------------------------- load-aware partitioning

TEST(WeightedPartition, SkewedWeightsShrinkTheHeavyGroup) {
  const cellular::HexNetwork net{1, 2.0};  // 7 cells
  // Cell 0 carries half the disk's weight: it must sit alone (or nearly)
  // in its group while the light cells pool together.
  const std::vector<double> weights{6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const cellular::CellGroupPartition p{net, 4, weights};
  EXPECT_EQ(p.groups(), 4);
  std::vector<int> sizes(4, 0);
  for (cellular::CellId c = 0; c < 7; ++c) {
    ++sizes.at(static_cast<std::size_t>(p.groupOf(c)));
    if (c > 0) {
      // Contiguous ranges: group ids never decrease along the id axis.
      EXPECT_GE(p.groupOf(c), p.groupOf(c - 1)) << "cell " << c;
    }
  }
  for (int g = 0; g < 4; ++g) EXPECT_GT(sizes[g], 0) << "empty group " << g;
  EXPECT_EQ(p.groupOf(0), 0);
  EXPECT_EQ(sizes[0], 1) << "the heavy cell must not drag light cells "
                            "into its lane";
}

TEST(WeightedPartition, AllZeroWeightsDegradeToTheUniformSplit) {
  const cellular::HexNetwork net{2, 2.0};  // 19 cells
  const std::vector<double> zeros(19, 0.0);
  const cellular::CellGroupPartition weighted{net, 4, zeros};
  const std::vector<double> ones(19, 1.0);
  const cellular::CellGroupPartition uniform{net, 4, ones};
  for (cellular::CellId c = 0; c < 19; ++c) {
    EXPECT_EQ(weighted.groupOf(c), uniform.groupOf(c)) << "cell " << c;
  }
}

TEST(WeightedPartition, RejectsMalformedWeights) {
  const cellular::HexNetwork net{1, 2.0};
  using cellular::CellGroupPartition;
  EXPECT_THROW((CellGroupPartition{net, 2, std::vector<double>(6, 1.0)}),
               std::invalid_argument);  // 6 weights for 7 cells
  std::vector<double> negative(7, 1.0);
  negative[3] = -0.5;
  EXPECT_THROW((CellGroupPartition{net, 2, negative}),
               std::invalid_argument);
  std::vector<double> infinite(7, 1.0);
  infinite[0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((CellGroupPartition{net, 2, infinite}),
               std::invalid_argument);
}

TEST(WeightedPartition, EngineRunsAreShardInvariantAndSeedStable) {
  // The weighted strategy (with epoch re-partitioning on) must satisfy
  // the same determinism contract as contiguous: a pure function of
  // (config, seed), at every shard count.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 60.0;
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("guard:8").run();
  EXPECT_EQ(first.commit_groups, 4);
  ASSERT_EQ(first.lane_events.size(), 4u);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
    expectBitIdentical(first, m,
                       "weighted shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = SimulationBuilder{cfg}.policy("guard:8").run();
  expectBitIdentical(first, again, "weighted repeat");
}

TEST(WeightedPartition, FlattensTheHotspotLaneSplit) {
  // The acceptance check in miniature: on the skewed disk at 4 lanes the
  // weighted partition's committed-event imbalance must sit well under
  // the contiguous mapping's (measured ~1.1 vs ~1.9; the margin asserted
  // here is loose enough to survive arrival-sequence jitter).
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Contiguous;
  const Metrics contiguous = SimulationBuilder{cfg}.policy("guard:8").run();
  cfg.partition = PartitionStrategy::Weighted;
  const Metrics weighted = SimulationBuilder{cfg}.policy("guard:8").run();
  ASSERT_EQ(contiguous.lane_events.size(), 4u);
  ASSERT_EQ(weighted.lane_events.size(), 4u);
  const double before = eventImbalance(contiguous);
  const double after = eventImbalance(weighted);
  EXPECT_GT(before, 1.3) << "hotspot too mild to demonstrate anything";
  EXPECT_LT(after, before * 0.85)
      << "weighted split (" << after << ") must beat contiguous ("
      << before << ") by a clear margin";
}

TEST(WeightedPartition, EpochRepartitioningFollowsAMigratingHotspot) {
  // The hotspot MOVES mid-run (cell 0's 12x scale drops to 1 while cell 4
  // ramps to 12x): the epoch re-partitioner must notice and re-draw the
  // boundaries at least once, and the run must stay a pure function of
  // (config, seed) — bit-identical across shard counts and repeats, with
  // the reservation books still balancing across the boundary moves.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 50.0;
  serve::ScenarioMutation cool;
  cool.at_s = 180.0;
  cool.op = serve::MutationOp::ArrivalScale;
  cool.cell = 0;
  cool.scale = 1.0;
  serve::ScenarioMutation heat;
  heat.at_s = 180.0;
  heat.op = serve::MutationOp::ArrivalScale;
  heat.cell = 4;
  heat.scale = 12.0;
  cfg.mutations.push_back(cool);
  cfg.mutations.push_back(heat);
  cfg.shards = 1;
  const Metrics first = SimulationBuilder{cfg}.policy("guard:8").run();
  EXPECT_GT(first.repartitions, 0)
      << "a migrating hotspot must trigger at least one boundary re-draw";
  EXPECT_EQ(first.mutations_applied, 2);
  // Conservation across re-partitions: every posted reservation is
  // settled exactly once, every handoff is accounted.
  EXPECT_EQ(first.reservations_posted,
            first.reservations_admitted + first.reservations_dropped);
  EXPECT_EQ(first.handoff_requests,
            first.handoff_accepted + first.handoff_dropped);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
    expectBitIdentical(first, m,
                       "migrating shards=" + std::to_string(shards));
  }
  cfg.shards = 1;
  const Metrics again = SimulationBuilder{cfg}.policy("guard:8").run();
  expectBitIdentical(first, again, "migrating repeat");
}

TEST(WeightedPartition, LaneEventsCoverTheCommittedStream) {
  // lane_events splits the committed work by lane: one entry per group,
  // every entry positive on a loaded disk, and the array plus the
  // repartition count round-trips through the metrics JSON.
  SimulationConfig cfg = hotspotConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  const Metrics m = SimulationBuilder{cfg}.policy("guard:8").run();
  ASSERT_EQ(m.lane_events.size(), 4u);
  for (std::size_t g = 0; g < m.lane_events.size(); ++g) {
    EXPECT_GT(m.lane_events[g], 0u) << "idle lane " << g;
  }
  const std::string json = m.toJson();
  EXPECT_NE(json.find("\"lane_events\": ["), std::string::npos);
  EXPECT_NE(json.find("\"repartitions\": "), std::string::npos);
}

TEST(WeightedPartition, ConfigValidatesTheNewKnobs) {
  SimulationConfig cfg = contestedConfig();
  cfg.commit_groups = 4;
  cfg.repartition_every_s = -1.0;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.repartition_every_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  // Re-partitioning is meaningless for contiguous boundaries — rejected,
  // not ignored.
  cfg.partition = PartitionStrategy::Contiguous;
  cfg.repartition_every_s = 60.0;
  EXPECT_THROW(validateConfig(cfg), std::invalid_argument);
  cfg.partition = PartitionStrategy::Weighted;
  EXPECT_NO_THROW(validateConfig(cfg));
  const SimulationConfig built = SimulationBuilder{}
                                     .commitGroups(4)
                                     .partition(PartitionStrategy::Weighted)
                                     .repartitionEvery(30.0)
                                     .build();
  EXPECT_EQ(built.partition, PartitionStrategy::Weighted);
  EXPECT_EQ(built.repartition_every_s, 30.0);
}

// ------------------------------------------------------------ reservations

TEST(ReservationMailbox, DrainsInCanonicalTimeThenCallOrder) {
  ReservationMailbox box;
  // Posted out of order, including an exact time tie — the paper's "two
  // BSs claim the last unit at once": the lower call id wins the earlier
  // slot, on every platform, at every shard count.
  box.post(Reservation{30.0, 9, 1, 2, 5, true});
  box.post(Reservation{10.0, 7, 3, 2, 5, true});
  box.post(Reservation{30.0, 2, 4, 2, 5, true});
  box.post(Reservation{20.0, 5, 5, 2, 5, true});
  ASSERT_EQ(box.size(), 4u);
  const auto drained = box.drain();
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].call, 7);
  EXPECT_EQ(drained[1].call, 5);
  EXPECT_EQ(drained[2].call, 2);  // tie at t=30: call 2 before call 9
  EXPECT_EQ(drained[3].call, 9);
  EXPECT_TRUE(box.empty());
  EXPECT_TRUE(box.drain().empty());
}

TEST(ReservationMailbox, MergeCombineKeepsSortedOrderAndDrainsTheRight) {
  // The tree-combining primitive of the parallel drain: two sorted
  // per-lane vectors merge into the left in one pass, the right empties,
  // and repeated pairwise rounds reproduce the single global order.
  const auto less = [](int a, int b) { return a < b; };
  std::vector<int> left{1, 4, 9};
  std::vector<int> right{2, 4, 7};
  mergeCombine(left, right, less);
  EXPECT_EQ(left, (std::vector<int>{1, 2, 4, 4, 7, 9}));
  EXPECT_TRUE(right.empty());
  // Degenerate shapes: empty right is a no-op, empty left adopts right.
  std::vector<int> untouched{5};
  std::vector<int> empty;
  mergeCombine(untouched, empty, less);
  EXPECT_EQ(untouched, (std::vector<int>{5}));
  std::vector<int> adopter;
  std::vector<int> donor{3, 8};
  mergeCombine(adopter, donor, less);
  EXPECT_EQ(adopter, (std::vector<int>{3, 8}));
  EXPECT_TRUE(donor.empty());
}

}  // namespace
}  // namespace facs::sim
