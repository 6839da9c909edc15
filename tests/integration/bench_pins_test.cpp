/// \file bench_pins_test.cpp
/// Every `det_*` key of the committed BENCH_micro.json, BENCH_scaling.json
/// and BENCH_streaming.json, recomputed here from the same workloads as
/// tools/bench_baseline.cpp and pinned with exact equality. The values are
/// deterministic engine outputs, so a one-ulp move in a checksum or one
/// event more in a count is a correctness change and fails here, on every
/// test run. A deliberate re-baseline updates these literals together with
/// the JSON files.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "cellular/radio.hpp"
#include "core/flc2.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"

namespace facs {
namespace {

sim::ControllerFactory guard8() {
  return cellular::PolicyRuntime::defaultRuntime().makeFactory("guard:8");
}

// ------------------------------------------------------ BENCH_micro.json --

TEST(BenchPins, MicroFlc2Checksum) {
  // The (Cv, R, Cs) grid the FLC2 microbaseline sums, in its order.
  const fuzzy::MamdaniEngine flc2 = core::buildFlc2();
  std::vector<double> inputs;
  for (double cv : {0.05, 0.25, 0.45, 0.45, 0.65, 0.95}) {
    for (double r : {1.0, 5.0, 5.0, 10.0}) {
      for (double cs : {0.0, 8.5, 17.0, 17.0, 17.0, 29.5, 40.0}) {
        inputs.push_back(cv);
        inputs.push_back(r);
        inputs.push_back(cs);
      }
    }
  }
  const std::size_t entries = inputs.size() / 3;
  double checksum = 0.0;
  for (std::size_t e = 0; e < entries; ++e) {
    checksum += flc2.infer(std::span<const double>{inputs.data() + 3 * e, 3});
  }
  EXPECT_EQ(entries, 168u);                // det_entries
  EXPECT_EQ(checksum, 33.09310835811669);  // det_flc2_checksum
}

TEST(BenchPins, MicroSirChecksum) {
  // The gain-table SINR over a position x serving-cell grid of the 19-cell
  // study network, every station partially loaded.
  cellular::HexNetwork net{2, 1.5};
  cellular::CallId call = 1;
  for (const cellular::Cell& c : net.cells()) {
    net.station(c.id).allocate(
        call++, 1 + static_cast<cellular::BandwidthUnits>(c.id * 7 % 29),
        true);
  }
  const cellular::RadioModel radio{net};
  double checksum = 0.0;
  for (const cellular::Cell& c : net.cells()) {
    for (const double fx : {0.15, -0.4, 0.65}) {
      for (const double fy : {0.3, -0.55}) {
        checksum += radio.sinrDb(
            cellular::Vec2{c.center.x + fx, c.center.y + fy}, c.id);
      }
    }
  }
  EXPECT_EQ(checksum, 2197.8126544936713);  // det_sir_checksum
}

// ---------------------------------------------------- BENCH_scaling.json --

TEST(BenchPins, ScalingGuard8Counts) {
  sim::SimulationConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.total_requests = 1500;
  cfg.arrival_window_s = 1200.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 2024;
  cfg.scenario.speed_min_kmh = 10.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  for (const int shards : {1, 4}) {
    cfg.shards = shards;
    const sim::Metrics m = sim::runSimulation(cfg, guard8());
    EXPECT_EQ(m.new_requests, 1500) << "shards=" << shards;
    EXPECT_EQ(m.new_accepted, 1261) << "shards=" << shards;
    EXPECT_EQ(m.handoff_dropped, 7) << "shards=" << shards;
    EXPECT_EQ(m.engine_events, 35039u) << "shards=" << shards;
    EXPECT_EQ(m.busy_bu_seconds, 527787.3642685792) << "shards=" << shards;
  }
}

// -------------------------------------------------- BENCH_streaming.json --

TEST(BenchPins, StreamingGuard8Counts) {
  // Always-on Poisson service over 7 cells with a flash crowd and an
  // outage/restore cycle, streamed as one JSONL record per 60 s window.
  sim::SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.total_requests = 300;
  cfg.arrival_window_s = 600.0;
  cfg.arrivals = sim::ArrivalProcess::Poisson;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 2024;
  cfg.scenario.speed_min_kmh = 10.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 10.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  serve::ScenarioMutation ramp;
  ramp.at_s = 600.0;
  ramp.op = serve::MutationOp::ArrivalScale;
  ramp.scale = 2.0;
  cfg.mutations.push_back(ramp);
  serve::ScenarioMutation outage;
  outage.at_s = 900.0;
  outage.op = serve::MutationOp::Outage;
  outage.cell = 1;
  cfg.mutations.push_back(outage);
  serve::ScenarioMutation restore = outage;
  restore.at_s = 1200.0;
  restore.op = serve::MutationOp::Restore;
  cfg.mutations.push_back(restore);

  serve::ServeOptions options;
  options.metrics_every_s = 60.0;
  options.duration_s = 1800.0;
  std::ostringstream stream;
  const sim::Metrics m =
      serve::serveSimulation(cfg, guard8(), options, stream);
  std::uint64_t windows = 0;
  for (const char c : stream.str()) windows += c == '\n';

  EXPECT_EQ(windows, 40u);
  EXPECT_EQ(m.new_requests, 1488);
  EXPECT_EQ(m.new_accepted, 1009);
  EXPECT_EQ(m.handoff_requests, 189);
  EXPECT_EQ(m.handoff_dropped, 7);
  EXPECT_EQ(m.completed, 989);
  EXPECT_EQ(m.engine_events, 26049u);
  EXPECT_EQ(m.outage_forced_drops, 13);
  EXPECT_EQ(m.mutations_applied, 3);
  EXPECT_EQ(m.peak_concurrent_calls, 97u);  // det_pool_high_water
}

}  // namespace
}  // namespace facs
