/// \file sharding_test.cpp
/// Determinism contract of the sharded engine: for a fixed seed, the
/// serial run (shards=1) and every sharded run must produce bit-identical
/// metrics — the cell partition may only change how much local work runs
/// concurrently, never a single simulation outcome. Double fields are
/// compared with exact equality on purpose: "close" would hide
/// nondeterministic commit ordering.

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "cellular/policy_registry.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/simulator.hpp"

namespace facs::sim {
namespace {

/// A multi-cell scenario exercising every cross-shard path: GPS-tracked
/// decisions, handoffs (accepted and dropped), coverage exits, warmup.
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
  // Exact double equality: the busy integral accumulates every occupancy
  // change in commit order, so one reordered event would surface here.
  EXPECT_EQ(a.busy_bu_seconds, b.busy_bu_seconds) << label;
  EXPECT_EQ(a.observed_span_s, b.observed_span_s) << label;
  EXPECT_EQ(a.total_capacity_bu, b.total_capacity_bu) << label;
  EXPECT_EQ(a.engine_events, b.engine_events) << label;
  EXPECT_EQ(a.truncated_rationales, b.truncated_rationales) << label;
}

TEST(ShardedEngine, BitIdenticalAcrossShardCountsFacs) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("facs").run();
  ASSERT_GT(serial.handoff_requests, 0);  // the scenario must exercise shards
  ASSERT_GT(serial.engine_events, 0u);
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("facs").run();
    expectBitIdentical(serial, m, "facs shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, BitIdenticalAcrossShardCountsScc) {
  // SCC is the hardest case: controller state spans cells (the shadow
  // accumulators), so any commit reordering would change decisions.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("scc").run();
  for (const int shards : {2, 4}) {
    cfg.shards = shards;
    const Metrics m = SimulationBuilder{cfg}.policy("scc").run();
    expectBitIdentical(serial, m, "scc shards=" + std::to_string(shards));
  }
}

TEST(ShardedEngine, RepeatedShardedRunsAreSeedStable) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 4;
  const Metrics a = SimulationBuilder{cfg}.policy("facs").run();
  const Metrics b = SimulationBuilder{cfg}.policy("facs").run();
  expectBitIdentical(a, b, "two shards=4 runs");
}

TEST(ShardedEngine, MoreShardsThanCellsStillIdentical) {
  // Extra shards own no cells but still take part in per-call preparation.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("guard:8").run();
  cfg.shards = 16;  // 7 cells only
  const Metrics wide = SimulationBuilder{cfg}.policy("guard:8").run();
  expectBitIdentical(serial, wide, "shards=16 over 7 cells");
}

TEST(ShardedEngine, SingleCellRunsShardToo) {
  // Sharding a single-cell scenario parallelizes request preparation only;
  // results still must not move.
  SimulationConfig cfg;
  cfg.total_requests = 80;
  cfg.seed = 9;
  cfg.shards = 1;
  const Metrics serial = SimulationBuilder{cfg}.policy("facs").run();
  cfg.shards = 4;
  const Metrics sharded = SimulationBuilder{cfg}.policy("facs").run();
  expectBitIdentical(serial, sharded, "single cell shards=4");
}

// ---------------------------------------------------------------------------
// Precompute equivalence: hoisting the snapshot-only FLC1 stage into the
// parallel prepare/local phases must not move a single bit of any metric —
// it is the same inference over the same snapshot, just executed off the
// serialized commit path. The reference keeps FLC1 inline: a wrapper whose
// precompute() returns an invalid PredictedCv, so decide() infers it.
// ---------------------------------------------------------------------------

/// Forwards every hook to the wrapped policy except precompute(), which it
/// leaves at the base class's invalid result.
class InlinePrediction final : public cellular::AdmissionController {
 public:
  explicit InlinePrediction(
      std::unique_ptr<cellular::AdmissionController> inner)
      : inner_{std::move(inner)} {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] cellular::CommitScope commitScope() const noexcept override {
    return inner_->commitScope();
  }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override {
    return inner_->decide(request, context);
  }
  void onAdmitted(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override {
    inner_->onAdmitted(request, context);
  }
  void onReleased(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override {
    inner_->onReleased(request, context);
  }
  void onRejected(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override {
    inner_->onRejected(request, context);
  }
  void onPartitionChanged(const cellular::CellGroupPartition& p) override {
    inner_->onPartitionChanged(p);
  }
  cellular::BarrierDrainStats onCommitBarrier(double now_s) override {
    return inner_->onCommitBarrier(now_s);
  }
  [[nodiscard]] std::string auditWorkload(
      const cellular::WorkloadEnvelope& envelope) const override {
    return inner_->auditWorkload(envelope);
  }

 private:
  std::unique_ptr<cellular::AdmissionController> inner_;
};

/// Runs \p policy with FLC1 (or any snapshot-only stage) inferred inline.
Metrics runInline(const SimulationConfig& cfg, std::string_view policy) {
  const ControllerFactory make =
      cellular::PolicyRuntime::defaultRuntime().makeFactory(policy);
  return runSimulation(cfg, [&make](const cellular::HexNetwork& net) {
    return std::make_unique<InlinePrediction>(make(net));
  });
}

TEST(PrecomputeEquivalence, HoistedMatchesInlineAcrossShardCounts) {
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 1;
  const Metrics inline_flc1 = runInline(cfg, "facs");
  // The scenario must include handoffs: each one is a mobility update that
  // invalidates the CV prepared at request time, forcing the local phase
  // to re-run the prediction against the post-step snapshot.
  ASSERT_GT(inline_flc1.handoff_requests, 0);
  for (const int shards : {1, 2, 4}) {
    cfg.shards = shards;
    const Metrics hoisted = SimulationBuilder{cfg}.policy("facs").run();
    expectBitIdentical(inline_flc1, hoisted,
                       "hoisted, shards=" + std::to_string(shards));
  }
}

TEST(PrecomputeEquivalence, MobilityInvalidatedCvRecomputesBeforeCommit) {
  // High speed + tiny cells: nearly every call crosses a boundary, so the
  // dominant decision flavour is a handoff whose snapshot (and therefore
  // whose CV) only exists after the mobility step that detected the
  // crossing. If the engine served the stale request-time CV instead of
  // re-running the prediction, these decisions would diverge from the
  // inline-FLC1 run and the comparison below would fail.
  SimulationConfig cfg = contestedConfig();
  cfg.cell_radius_km = 1.0;
  cfg.scenario.speed_min_kmh = 80.0;
  cfg.scenario.speed_max_kmh = 120.0;
  cfg.shards = 1;
  const Metrics inline_flc1 = runInline(cfg, "facs");
  ASSERT_GT(inline_flc1.handoff_requests, inline_flc1.new_requests / 2);
  for (const int shards : {1, 4}) {
    cfg.shards = shards;
    const Metrics hoisted = SimulationBuilder{cfg}.policy("facs").run();
    expectBitIdentical(inline_flc1, hoisted,
                       "handoff-heavy hoisted, shards=" +
                           std::to_string(shards));
  }
}

TEST(PrecomputeEquivalence, PoliciesWithoutPrecomputeAreUnaffected) {
  // Policies that keep the default no-op precompute() (SCC here) see an
  // invalid PredictedCv either way: the wrapper changes nothing.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 2;
  const Metrics direct = SimulationBuilder{cfg}.policy("scc").run();
  const Metrics wrapped = runInline(cfg, "scc");
  expectBitIdentical(direct, wrapped, "scc direct vs wrapped");
}

TEST(ShardedEngine, PhaseProfileIsPopulated) {
  // The wall-clock phase profile feeds the serial-fraction benchmarks; it
  // is observational (not compared across runs) but must be present and
  // consistent: some time in every phase the run actually exercised.
  SimulationConfig cfg = contestedConfig();
  cfg.shards = 2;
  const Metrics m = SimulationBuilder{cfg}.policy("facs").run();
  EXPECT_GT(m.prepare_phase_s, 0.0);
  EXPECT_GT(m.local_phase_s, 0.0);
  EXPECT_GT(m.commit_phase_s, 0.0);
  EXPECT_GT(m.commitShare(), 0.0);
  EXPECT_LT(m.commitShare(), 1.0);
}

TEST(ShardedEngine, ShardCountIsValidated) {
  SimulationConfig cfg;
  cfg.total_requests = 1;
  cfg.shards = 0;
  EXPECT_THROW((void)SimulationBuilder{cfg}.policy("cs").run(),
               std::invalid_argument);
  cfg.shards = -3;
  EXPECT_THROW((void)SimulationBuilder{cfg}.policy("cs").run(),
               std::invalid_argument);
  cfg.shards = kMaxShards + 1;
  EXPECT_THROW((void)SimulationBuilder{cfg}.policy("cs").run(),
               std::invalid_argument);
  cfg.shards = 1;
  EXPECT_NO_THROW((void)SimulationBuilder{cfg}.policy("cs").run());
}

TEST(ShardedEngine, BuilderSurfacesShards) {
  const SimulationConfig cfg =
      SimulationBuilder::scenario("stadium-burst").shards(2).build();
  EXPECT_EQ(cfg.shards, 2);
  // Catalog defaults show through when not overridden.
  EXPECT_EQ(SimulationBuilder::scenario("stadium-burst").build().shards, 4);
  EXPECT_EQ(SimulationBuilder::scenario("paper-single-cell").build().shards, 1);
}

}  // namespace
}  // namespace facs::sim
