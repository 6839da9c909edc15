#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <limits>

#include "cac/baselines.hpp"
#include "core/facs.hpp"
#include "scc/shadow_cluster.hpp"

namespace facs::sim {
namespace {

ControllerFactory completeSharing() {
  return [](const cellular::HexNetwork&) {
    return std::make_unique<cac::CompleteSharingController>();
  };
}

ControllerFactory facsFactory() {
  return [](const cellular::HexNetwork&) {
    return std::make_unique<core::FacsController>();
  };
}

/// Test policy that rejects everything.
class RejectAll final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "RejectAll"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext&) override {
    return {false, cellular::ReasonCode::NoCapacity, -1.0, "no"};
  }
};

/// Test policy that accepts blindly (the simulator must still protect the
/// ledger's capacity invariant).
class AcceptAll final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "AcceptAll"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext&) override {
    return {true, cellular::ReasonCode::Admitted, 1.0, "yes"};
  }
};

SimulationConfig lightConfig(int requests) {
  SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.seed = 7;
  cfg.scenario.tracking_window_s = 0.0;  // fast runs for structural tests
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

TEST(Simulator, ValidatesConfig) {
  SimulationConfig bad = lightConfig(5);
  bad.total_requests = -1;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  bad = lightConfig(5);
  bad.arrival_window_s = 0.0;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  bad = lightConfig(5);
  bad.scenario.tracking_window_s = 10.0;
  bad.scenario.gps_fix_period_s = 0.0;
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  EXPECT_THROW(
      (void)runSimulation(lightConfig(1),
                          [](const cellular::HexNetwork&)
                              -> std::unique_ptr<cellular::AdmissionController> {
                            return nullptr;
                          }),
      std::invalid_argument);
}

TEST(Simulator, RejectsFixCountsBeyondInt) {
  // window / period + 1 fixes are counted in an int by the tracking walk;
  // a period this small used to overflow that conversion mid-run.
  SimulationConfig bad = lightConfig(5);
  bad.scenario.tracking_window_s = 10.0;
  bad.scenario.gps_fix_period_s = 1e-300;
  EXPECT_THROW(validateConfig(bad), std::invalid_argument);
  EXPECT_THROW((void)runSimulation(bad, completeSharing()),
               std::invalid_argument);
  bad.scenario.tracking_window_s = std::numeric_limits<double>::infinity();
  bad.scenario.gps_fix_period_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validateConfig(bad), std::invalid_argument);
  bad.scenario.gps_fix_period_s = 1.0;
  EXPECT_THROW(validateConfig(bad), std::invalid_argument);

  // The largest count that still fits is accepted.
  SimulationConfig edge = lightConfig(5);
  edge.scenario.gps_fix_period_s = 1.0;
  edge.scenario.tracking_window_s =
      static_cast<double>(std::numeric_limits<int>::max()) - 1.0;
  EXPECT_NO_THROW(validateConfig(edge));
  edge.scenario.tracking_window_s += 1.0;
  EXPECT_THROW(validateConfig(edge), std::invalid_argument);
}

TEST(Simulator, RejectsMobilityPeriodsBeyondTickCap) {
  // With a period this small, t + period == t and the run never ended.
  for (const double period : {1e-300, 1e-12}) {
    SimulationConfig bad = lightConfig(5);
    bad.enable_handoffs = true;
    bad.mobility_update_s = period;
    EXPECT_THROW(validateConfig(bad), std::invalid_argument) << period;
    EXPECT_THROW((void)runSimulation(bad, completeSharing()),
                 std::invalid_argument)
        << period;
  }
  SimulationConfig edge = lightConfig(5);
  edge.enable_handoffs = true;
  edge.scenario.tracking_window_s = 0.0;
  edge.arrival_window_s = 400.0;
  edge.mobility_update_s = 400.0 / kMaxMobilityTicks;
  EXPECT_NO_THROW(validateConfig(edge));
  edge.mobility_update_s = std::nextafter(edge.mobility_update_s, 0.0);
  EXPECT_THROW(validateConfig(edge), std::invalid_argument);
  // The horizon counts the tracking window too.
  edge.mobility_update_s = 400.0 / kMaxMobilityTicks;
  edge.scenario.tracking_window_s = 10.0;
  edge.scenario.gps_fix_period_s = 1.0;
  EXPECT_THROW(validateConfig(edge), std::invalid_argument);
  // An infinite arrival window has no finite tick count.
  edge.arrival_window_s = std::numeric_limits<double>::infinity();
  edge.mobility_update_s = 5.0;
  EXPECT_THROW(validateConfig(edge), std::invalid_argument);
  // Without handoffs the period is never used, so it is not checked.
  SimulationConfig off = lightConfig(5);
  off.enable_handoffs = false;
  off.mobility_update_s = 1e-300;
  EXPECT_NO_THROW(validateConfig(off));
}

TEST(Simulator, ZeroRequestsIsAnEmptyRun) {
  const Metrics m = runSimulation(lightConfig(0), completeSharing());
  EXPECT_EQ(m.new_requests, 0);
  EXPECT_DOUBLE_EQ(m.percentAccepted(), 100.0);
}

TEST(Simulator, CountsAreConsistent) {
  const Metrics m = runSimulation(lightConfig(60), completeSharing());
  EXPECT_EQ(m.new_requests, 60);
  EXPECT_EQ(m.new_requests, m.new_accepted + m.new_blocked);
  // Single cell without handoffs: every accepted call eventually completes.
  EXPECT_EQ(m.completed, m.new_accepted);
  EXPECT_EQ(m.handoff_requests, 0);
  int class_total = 0;
  for (const int c : m.class_requests) class_total += c;
  EXPECT_EQ(class_total, 60);
}

TEST(Simulator, RejectAllBlocksEverything) {
  SimulationConfig cfg = lightConfig(40);
  const Metrics m = runSimulation(cfg, [](const cellular::HexNetwork&) {
    return std::make_unique<RejectAll>();
  });
  EXPECT_EQ(m.new_accepted, 0);
  EXPECT_EQ(m.new_blocked, 40);
  EXPECT_DOUBLE_EQ(m.percentAccepted(), 0.0);
  EXPECT_DOUBLE_EQ(m.meanUtilization(), 0.0);
}

TEST(Simulator, AcceptAllCannotOverflowCapacity) {
  // Blind accepts at heavy load: the simulator's canFit() backstop must
  // keep the ledger legal, so the run completes without a logic_error.
  SimulationConfig cfg = lightConfig(200);
  cfg.arrival_window_s = 120.0;  // brutal arrival rate for a 40 BU cell
  const Metrics m = runSimulation(cfg, [](const cellular::HexNetwork&) {
    return std::make_unique<AcceptAll>();
  });
  EXPECT_EQ(m.new_requests, 200);
  EXPECT_GT(m.new_blocked, 0);  // physics said no, whatever the policy said
  EXPECT_LE(m.meanUtilization(), 1.0 + 1e-9);
}

TEST(Simulator, DeterministicForSameSeed) {
  const SimulationConfig cfg = lightConfig(50);
  const Metrics a = runSimulation(cfg, facsFactory());
  const Metrics b = runSimulation(cfg, facsFactory());
  EXPECT_EQ(a.new_accepted, b.new_accepted);
  EXPECT_EQ(a.new_blocked, b.new_blocked);
  EXPECT_DOUBLE_EQ(a.busy_bu_seconds, b.busy_bu_seconds);
}

TEST(Simulator, DifferentSeedsDiffer) {
  SimulationConfig a = lightConfig(50);
  SimulationConfig b = lightConfig(50);
  b.seed = 1234;
  const Metrics ma = runSimulation(a, facsFactory());
  const Metrics mb = runSimulation(b, facsFactory());
  // Not a strict guarantee, but with 50 stochastic arrivals the busy
  // integrals colliding would be a miracle.
  EXPECT_NE(ma.busy_bu_seconds, mb.busy_bu_seconds);
}

TEST(Simulator, LoadDegradesAcceptance) {
  SimulationConfig cfg = lightConfig(10);
  const Metrics light = runSimulation(cfg, completeSharing());
  cfg.total_requests = 150;
  const Metrics heavy = runSimulation(cfg, completeSharing());
  EXPECT_GT(light.percentAccepted(), heavy.percentAccepted());
  EXPECT_GT(heavy.meanUtilization(), light.meanUtilization());
}

TEST(Simulator, GpsTrackingPathRuns) {
  SimulationConfig cfg = lightConfig(30);
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_fix_period_s = 5.0;
  cfg.scenario.gps_error_m = 10.0;
  const Metrics m = runSimulation(cfg, facsFactory());
  EXPECT_EQ(m.new_requests, 30);
  EXPECT_GT(m.new_accepted, 0);
}

TEST(Simulator, MultiCellHandoffsHappen) {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;  // small cells so fast users cross borders
  cfg.total_requests = 80;
  cfg.arrival_window_s = 600.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 11;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  cfg.scenario.speed_min_kmh = 60.0;
  cfg.scenario.speed_max_kmh = 120.0;
  cfg.scenario.distance_max_km = 2.0;
  const Metrics m = runSimulation(cfg, completeSharing());
  EXPECT_GT(m.handoff_requests, 0);
  EXPECT_EQ(m.handoff_requests, m.handoff_accepted + m.handoff_dropped);
}

TEST(Simulator, SccRunsInMultiCellNetwork) {
  SimulationConfig cfg;
  cfg.rings = 1;
  cfg.total_requests = 60;
  cfg.seed = 3;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  const Metrics m =
      runSimulation(cfg, [](const cellular::HexNetwork& net) {
        return std::make_unique<scc::ShadowClusterController>(net);
      });
  EXPECT_EQ(m.new_requests, 60);
  EXPECT_GT(m.new_accepted, 0);
}

TEST(Simulator, PoissonArrivalsRunAndDiffer) {
  SimulationConfig burst = lightConfig(80);
  SimulationConfig poisson = lightConfig(80);
  poisson.arrivals = ArrivalProcess::Poisson;
  const Metrics mb = runSimulation(burst, completeSharing());
  const Metrics mp = runSimulation(poisson, completeSharing());
  EXPECT_EQ(mp.new_requests, 80);
  EXPECT_EQ(mp.new_requests, mp.new_accepted + mp.new_blocked);
  // Different arrival processes produce different dynamics.
  EXPECT_NE(mb.busy_bu_seconds, mp.busy_bu_seconds);
}

TEST(Simulator, PoissonIsDeterministicPerSeed) {
  SimulationConfig cfg = lightConfig(60);
  cfg.arrivals = ArrivalProcess::Poisson;
  const Metrics a = runSimulation(cfg, completeSharing());
  const Metrics b = runSimulation(cfg, completeSharing());
  EXPECT_DOUBLE_EQ(a.busy_bu_seconds, b.busy_bu_seconds);
}

TEST(Simulator, WarmupExcludesEarlyRequests) {
  SimulationConfig cfg = lightConfig(100);
  cfg.arrival_window_s = 400.0;
  const Metrics all = runSimulation(cfg, completeSharing());
  cfg.warmup_s = 200.0;
  const Metrics tail = runSimulation(cfg, completeSharing());
  // Roughly half the arrivals land in the warm-up and are not counted.
  EXPECT_LT(tail.new_requests, all.new_requests);
  EXPECT_GT(tail.new_requests, 20);
  EXPECT_EQ(tail.new_requests, tail.new_accepted + tail.new_blocked);
  // The busy integral only covers the measured span.
  EXPECT_LT(tail.busy_bu_seconds, all.busy_bu_seconds);
  EXPECT_LE(tail.meanUtilization(), 1.0 + 1e-9);
}

TEST(Simulator, WarmupValidation) {
  SimulationConfig cfg = lightConfig(10);
  cfg.warmup_s = -1.0;
  EXPECT_THROW((void)runSimulation(cfg, completeSharing()),
               std::invalid_argument);
}

TEST(Simulator, UtilizationBoundedByCapacity) {
  SimulationConfig cfg = lightConfig(300);
  cfg.arrival_window_s = 300.0;
  const Metrics m = runSimulation(cfg, completeSharing());
  EXPECT_GE(m.meanUtilization(), 0.0);
  EXPECT_LE(m.meanUtilization(), 1.0 + 1e-9);
}

/// Test policy whose explain-mode rationale never fits ReasonText's inline
/// buffer, so every explained decision trips truncated().
class VerbosePolicy final : public cellular::AdmissionController {
 public:
  [[nodiscard]] std::string name() const override { return "Verbose"; }
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest&, const cellular::AdmissionContext& ctx)
      override {
    cellular::AdmissionDecision d{true, cellular::ReasonCode::Admitted, 1.0,
                                  {}};
    if (ctx.explain) {
      d.rationale = std::string(cellular::ReasonText::kCapacity + 40, 'x');
    }
    return d;
  }
};

TEST(Simulator, TruncatedRationalesAreCountedOnlyWhenExplaining) {
  SimulationConfig cfg = lightConfig(25);
  const auto verbose = [](const cellular::HexNetwork&) {
    return std::make_unique<VerbosePolicy>();
  };
  const Metrics quiet = runSimulation(cfg, verbose);
  EXPECT_EQ(quiet.truncated_rationales, 0)
      << "explain off: no rationale, nothing to truncate";

  cfg.explain = true;
  const Metrics explained = runSimulation(cfg, verbose);
  EXPECT_EQ(explained.truncated_rationales, 25)
      << "every explained decision overflowed the inline buffer";
  // Surfacing the loss must not perturb the run itself.
  EXPECT_EQ(explained.new_accepted, quiet.new_accepted);
  EXPECT_EQ(explained.engine_events, quiet.engine_events);

  // The counter honours the warmup gate like every other metric: only
  // measured (counted) decisions report their truncation.
  cfg.warmup_s = 300.0;  // half the default 600 s arrival window
  const Metrics warmed = runSimulation(cfg, verbose);
  EXPECT_EQ(warmed.truncated_rationales, warmed.new_requests);
  EXPECT_LT(warmed.truncated_rationales, 25);
  EXPECT_GT(warmed.truncated_rationales, 0);
}

}  // namespace
}  // namespace facs::sim
