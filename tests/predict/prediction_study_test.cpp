#include "predict/prediction_study.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace facs::predict {
namespace {

TEST(RocAuc, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(rocAuc({0.8, 0.9, 1.0}, {0.1, 0.2}), 1.0);
  EXPECT_DOUBLE_EQ(rocAuc({0.1, 0.2}, {0.8, 0.9}), 0.0);
}

TEST(RocAuc, TiesAndMixtures) {
  EXPECT_DOUBLE_EQ(rocAuc({0.5}, {0.5}), 0.5);
  // positives {1, 0}, negatives {0.5}: one win, one loss -> 0.5.
  EXPECT_DOUBLE_EQ(rocAuc({1.0, 0.0}, {0.5}), 0.5);
  // 3 wins + 1 tie out of 4 pairs = 3.5/4.
  EXPECT_DOUBLE_EQ(rocAuc({1.0, 0.6}, {0.6, 0.2}), 0.875);
}

TEST(RocAuc, RequiresBothClasses) {
  EXPECT_THROW((void)rocAuc({}, {0.1}), std::invalid_argument);
  EXPECT_THROW((void)rocAuc({0.1}, {}), std::invalid_argument);
}

TEST(PredictionStudy, ValidatesConfig) {
  PredictionConfig bad;
  bad.horizon_s = 0.0;
  EXPECT_THROW((void)runPredictionStudy(bad), std::invalid_argument);
  bad = {};
  bad.step_s = -1.0;
  EXPECT_THROW((void)runPredictionStudy(bad), std::invalid_argument);
  bad = {};
  bad.samples = 1;
  EXPECT_THROW((void)runPredictionStudy(bad), std::invalid_argument);
}

TEST(PredictionStudy, RejectsUnboundedWalks) {
  // A step too small for the horizon never advances the roll-forward.
  for (const double step : {1e-300, 1e-12}) {
    PredictionConfig bad;
    bad.step_s = step;
    EXPECT_THROW((void)runPredictionStudy(bad), std::invalid_argument)
        << step;
  }
  PredictionConfig inf;
  inf.horizon_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)runPredictionStudy(inf), std::invalid_argument);
  // The tracking walk's fix count goes through the simulator's check.
  PredictionConfig fixes;
  fixes.scenario.tracking_window_s = 10.0;
  fixes.scenario.gps_fix_period_s = 1e-300;
  EXPECT_THROW((void)runPredictionStudy(fixes), std::invalid_argument);
  fixes.scenario.gps_fix_period_s = 20.0;  // beyond the window
  EXPECT_THROW((void)runPredictionStudy(fixes), std::invalid_argument);
}

PredictionConfig smallStudy() {
  PredictionConfig cfg;
  cfg.samples = 400;
  cfg.seed = 5;
  cfg.scenario.angle_sigma_deg = 75.0;
  cfg.scenario.tracking_window_s = 0.0;  // keep the test fast
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

TEST(PredictionStudy, ReportsAllThreePredictors) {
  const StudyResult r = runPredictionStudy(smallStudy());
  ASSERT_EQ(r.predictors.size(), 3u);
  EXPECT_EQ(r.predictors[0].name, "facs-cv");
  EXPECT_EQ(r.predictors[1].name, "straight-line");
  EXPECT_EQ(r.predictors[2].name, "proximity");
  EXPECT_EQ(r.approachers + r.retreaters, 400);
  for (const auto& p : r.predictors) {
    EXPECT_GE(p.auc, 0.0);
    EXPECT_LE(p.auc, 1.0);
  }
}

TEST(PredictionStudy, DeterministicPerSeed) {
  const StudyResult a = runPredictionStudy(smallStudy());
  const StudyResult b = runPredictionStudy(smallStudy());
  EXPECT_EQ(a.approachers, b.approachers);
  for (std::size_t i = 0; i < a.predictors.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.predictors[i].auc, b.predictors[i].auc);
  }
}

TEST(PredictionStudy, FastStraightUsersAreRankable) {
  PredictionConfig cfg = smallStudy();
  cfg.scenario.speed_min_kmh = 60.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.samples = 800;
  const StudyResult r = runPredictionStudy(cfg);
  // Fast users barely turn: both informed predictors must rank well.
  EXPECT_GT(r.predictors[0].auc, 0.8) << "facs-cv";
  EXPECT_GT(r.predictors[1].auc, 0.8) << "straight-line";
  // Approachers carry higher Cv than retreaters.
  EXPECT_GT(r.predictors[0].mean_score_approachers,
            r.predictors[0].mean_score_retreaters);
}

TEST(PredictionStudy, MixedPopulationFavoursTheFuzzyPredictor) {
  PredictionConfig cfg = smallStudy();
  cfg.scenario.speed_min_kmh = 0.0;
  cfg.scenario.speed_max_kmh = 120.0;
  cfg.samples = 1500;
  const StudyResult r = runPredictionStudy(cfg);
  // The paper's conclusion, measured: speed-aware fuzzy prediction ranks a
  // mixed population at least as well as dead reckoning.
  EXPECT_GE(r.predictors[0].auc, r.predictors[1].auc - 0.01);
  // And both beat the mobility-blind baseline.
  EXPECT_GT(r.predictors[0].auc, r.predictors[2].auc + 0.1);
}

TEST(PredictionStudy, WalkersAreNearCoinFlips) {
  PredictionConfig cfg = smallStudy();
  cfg.scenario.speed_min_kmh = 4.0;
  cfg.scenario.speed_max_kmh = 4.0;
  cfg.samples = 800;
  const StudyResult r = runPredictionStudy(cfg);
  // The paper's own caveat: walking users' direction "can be changed",
  // so nobody ranks them much better than chance.
  EXPECT_NEAR(r.predictors[0].auc, 0.5, 0.12);
  EXPECT_NEAR(r.predictors[1].auc, 0.5, 0.12);
}

}  // namespace
}  // namespace facs::predict
