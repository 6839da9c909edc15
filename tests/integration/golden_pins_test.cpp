/// \file golden_pins_test.cpp
/// Golden outputs: the full Metrics::toJson() of fixed runs, pinned as
/// text. Unlike the equivalence suites, which compare two paths of one
/// build, these compare a build with the recorded output of an earlier
/// one, so a refactor that moves any bit of a pinned run fails here. The
/// runs cover the SCC controller at reach 0 (with and without frequent
/// exact rebuilds) and at reach 2 with one and four commit groups
/// (weighted, repartitioning), plus FACS on a handoff-heavy run where the
/// hoisted FLC1 prediction is recomputed after most mobility steps.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "cellular/policy_registry.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

/// 19 cells, 600 GPS-tracked calls with handoffs: enough load that SCC's
/// projected demand rejects calls and handoffs cross group boundaries.
SimulationConfig goldenConfig() {
  SimulationConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.total_requests = 600;
  cfg.arrival_window_s = 600.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 16;
  cfg.scenario.speed_min_kmh = 20.0;
  cfg.scenario.speed_max_kmh = 90.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 10.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  return cfg;
}

std::string runJson(const SimulationConfig& cfg, std::string_view policy) {
  return runSimulation(
             cfg, cellular::PolicyRuntime::defaultRuntime().makeFactory(policy))
      .toJson();
}

TEST(GoldenPins, SccReachZero) {
  EXPECT_EQ(runJson(goldenConfig(), "scc"), R"json({
  "new_requests": 600,
  "new_accepted": 236,
  "new_blocked": 364,
  "handoff_requests": 76,
  "handoff_accepted": 42,
  "handoff_dropped": 34,
  "completed": 202,
  "class_requests": [374, 171, 55],
  "class_accepted": [214, 17, 5],
  "busy_bu_seconds": 35439.24969801606,
  "observed_span_s": 1019.0644640463986,
  "total_capacity_bu": 760,
  "engine_events": 5327,
  "commit_groups": 1,
  "lane_events": [878],
  "repartitions": 0,
  "repartitions_skipped": 0,
  "reservations_posted": 0,
  "reservations_admitted": 0,
  "reservations_dropped": 0,
  "demand_deltas": 0,
  "shadow_migrations": 0,
  "policy_warnings": 0,
  "mutations_applied": 0,
  "outage_forced_drops": 0,
  "peak_concurrent_calls": 51,
  "truncated_rationales": 0,
  "percent_accepted": 39.333333333333336,
  "blocking_probability": 0.6066666666666667,
  "dropping_probability": 0.4473684210526316,
  "mean_utilization": 0.04575823547291582
})json");
}

TEST(GoldenPins, SccReachZeroWithInlineRebuilds) {
  EXPECT_EQ(runJson(goldenConfig(), "scc:rebuild=16"), R"json({
  "new_requests": 600,
  "new_accepted": 236,
  "new_blocked": 364,
  "handoff_requests": 76,
  "handoff_accepted": 42,
  "handoff_dropped": 34,
  "completed": 202,
  "class_requests": [374, 171, 55],
  "class_accepted": [214, 17, 5],
  "busy_bu_seconds": 35439.24969801606,
  "observed_span_s": 1019.0644640463986,
  "total_capacity_bu": 760,
  "engine_events": 5327,
  "commit_groups": 1,
  "lane_events": [878],
  "repartitions": 0,
  "repartitions_skipped": 0,
  "reservations_posted": 0,
  "reservations_admitted": 0,
  "reservations_dropped": 0,
  "demand_deltas": 0,
  "shadow_migrations": 0,
  "policy_warnings": 0,
  "mutations_applied": 0,
  "outage_forced_drops": 0,
  "peak_concurrent_calls": 51,
  "truncated_rationales": 0,
  "percent_accepted": 39.333333333333336,
  "blocking_probability": 0.6066666666666667,
  "dropping_probability": 0.4473684210526316,
  "mean_utilization": 0.04575823547291582
})json");
}

TEST(GoldenPins, SccReachTwoOneGroup) {
  EXPECT_EQ(runJson(goldenConfig(), "scc:reach=2,rebuild=16"), R"json({
  "new_requests": 600,
  "new_accepted": 236,
  "new_blocked": 364,
  "handoff_requests": 63,
  "handoff_accepted": 20,
  "handoff_dropped": 43,
  "completed": 193,
  "class_requests": [374, 171, 55],
  "class_accepted": [178, 48, 10],
  "busy_bu_seconds": 51472.765007159,
  "observed_span_s": 1139.004672182733,
  "total_capacity_bu": 760,
  "engine_events": 5051,
  "commit_groups": 1,
  "lane_events": [856],
  "repartitions": 0,
  "repartitions_skipped": 0,
  "reservations_posted": 0,
  "reservations_admitted": 0,
  "reservations_dropped": 0,
  "demand_deltas": 0,
  "shadow_migrations": 0,
  "policy_warnings": 0,
  "mutations_applied": 0,
  "outage_forced_drops": 0,
  "peak_concurrent_calls": 49,
  "truncated_rationales": 0,
  "percent_accepted": 39.333333333333336,
  "blocking_probability": 0.6066666666666667,
  "dropping_probability": 0.6825396825396826,
  "mean_utilization": 0.05946184772714888
})json");
}

TEST(GoldenPins, SccReachTwoFourWeightedGroups) {
  SimulationConfig cfg = goldenConfig();
  cfg.commit_groups = 4;
  cfg.partition = PartitionStrategy::Weighted;
  cfg.repartition_every_s = 60.0;
  EXPECT_EQ(runJson(cfg, "scc:reach=2,rebuild=16"), R"json({
  "new_requests": 600,
  "new_accepted": 231,
  "new_blocked": 369,
  "handoff_requests": 60,
  "handoff_accepted": 28,
  "handoff_dropped": 32,
  "completed": 199,
  "class_requests": [374, 171, 55],
  "class_accepted": [171, 51, 9],
  "busy_bu_seconds": 50543.88234038417,
  "observed_span_s": 1158.3176555818204,
  "total_capacity_bu": 760,
  "engine_events": 4973,
  "commit_groups": 4,
  "lane_events": [224, 235, 228, 204],
  "repartitions": 10,
  "repartitions_skipped": 7,
  "reservations_posted": 32,
  "reservations_admitted": 10,
  "reservations_dropped": 22,
  "demand_deltas": 9375,
  "shadow_migrations": 10,
  "policy_warnings": 0,
  "mutations_applied": 0,
  "outage_forced_drops": 0,
  "peak_concurrent_calls": 47,
  "truncated_rationales": 0,
  "percent_accepted": 38.5,
  "blocking_probability": 0.615,
  "dropping_probability": 0.5333333333333333,
  "mean_utilization": 0.05741525912354792
})json");
}

TEST(GoldenPins, FacsHandoffHeavy) {
  SimulationConfig cfg = goldenConfig();
  cfg.cell_radius_km = 1.0;
  cfg.scenario.speed_min_kmh = 80.0;
  cfg.scenario.speed_max_kmh = 120.0;
  cfg.shards = 2;
  EXPECT_EQ(runJson(cfg, "facs"), R"json({
  "new_requests": 600,
  "new_accepted": 557,
  "new_blocked": 43,
  "handoff_requests": 554,
  "handoff_accepted": 531,
  "handoff_dropped": 23,
  "completed": 534,
  "class_requests": [374, 171, 55],
  "class_accepted": [347, 158, 52],
  "busy_bu_seconds": 131598.98022677458,
  "observed_span_s": 855,
  "total_capacity_bu": 760,
  "engine_events": 9230,
  "commit_groups": 1,
  "lane_events": [1688],
  "repartitions": 0,
  "repartitions_skipped": 0,
  "reservations_posted": 0,
  "reservations_admitted": 0,
  "reservations_dropped": 0,
  "demand_deltas": 0,
  "shadow_migrations": 0,
  "policy_warnings": 0,
  "mutations_applied": 0,
  "outage_forced_drops": 0,
  "peak_concurrent_calls": 85,
  "truncated_rationales": 0,
  "percent_accepted": 92.83333333333333,
  "blocking_probability": 0.07166666666666667,
  "dropping_probability": 0.04151624548736462,
  "mean_utilization": 0.20252228412861586
})json");
}

}  // namespace
}  // namespace facs::sim
