#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cac/baselines.hpp"

namespace facs::sim {
namespace {

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_GT(s.ci95(), 0.0);
}

TEST(RunningStat, SingleSampleHasZeroSpread) {
  RunningStat s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

CurveSpec csCurve(const std::string& label) {
  CurveSpec c;
  c.label = label;
  c.base.scenario.tracking_window_s = 0.0;
  c.base.scenario.gps_error_m.reset();
  c.make_controller = [](const cellular::HexNetwork&) {
    return std::make_unique<cac::CompleteSharingController>();
  };
  return c;
}

TEST(Sweep, Validation) {
  SweepSpec spec;
  spec.xs = {};
  EXPECT_THROW((void)runSweep(spec, {csCurve("a")}), std::invalid_argument);
  spec.xs = {10};
  spec.replications = 0;
  EXPECT_THROW((void)runSweep(spec, {csCurve("a")}), std::invalid_argument);
}

TEST(Sweep, ShapesAndDeterminism) {
  SweepSpec spec;
  spec.title = "t";
  spec.xs = {5, 20, 60};
  spec.replications = 3;
  const SweepResult r1 = runSweep(spec, {csCurve("cs")});
  ASSERT_EQ(r1.curves.size(), 1u);
  ASSERT_EQ(r1.curves[0].points.size(), 3u);
  EXPECT_EQ(r1.curves[0].points[1].x, 20);
  EXPECT_EQ(r1.curves[0].points[0].replications, 3);

  const SweepResult r2 = runSweep(spec, {csCurve("cs")});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(r1.curves[0].points[i].mean,
                     r2.curves[0].points[i].mean);
  }
}

TEST(Sweep, CommonRandomNumbersAcrossCurves) {
  // Identical policies under CRN must produce identical curves.
  SweepSpec spec;
  spec.xs = {15, 40};
  spec.replications = 2;
  const SweepResult r = runSweep(spec, {csCurve("a"), csCurve("b")});
  for (std::size_t i = 0; i < r.curves[0].points.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.curves[0].points[i].mean, r.curves[1].points[i].mean);
  }
}

TEST(Sweep, ParallelIsBitIdenticalToSerial) {
  // The parallel path must not perturb results: same tasks, same seeds,
  // same (serial, ordered) Welford accumulation.
  SweepSpec serial;
  serial.xs = {5, 20, 60};
  serial.replications = 4;
  serial.threads = 1;
  SweepSpec parallel = serial;
  parallel.threads = 4;

  const std::vector<CurveSpec> curves{csCurve("a"), csCurve("b")};
  const SweepResult r1 = runSweep(serial, curves);
  const SweepResult r2 = runSweep(parallel, curves);
  ASSERT_EQ(r1.curves.size(), r2.curves.size());
  for (std::size_t c = 0; c < r1.curves.size(); ++c) {
    ASSERT_EQ(r1.curves[c].points.size(), r2.curves[c].points.size());
    for (std::size_t i = 0; i < r1.curves[c].points.size(); ++i) {
      EXPECT_EQ(r1.curves[c].points[i].mean, r2.curves[c].points[i].mean);
      EXPECT_EQ(r1.curves[c].points[i].stddev, r2.curves[c].points[i].stddev);
      EXPECT_EQ(r1.curves[c].points[i].ci95, r2.curves[c].points[i].ci95);
    }
  }
}

TEST(Sweep, FacsSweepIsByteIdenticalAcrossThreadCounts) {
  // One factory per curve, so every run of the curve shares one FLC1/FLC2
  // pair — across four worker threads here, each with its own scratch.
  SweepSpec serial;
  serial.xs = {10, 40};
  serial.replications = 3;
  serial.threads = 1;
  SweepSpec parallel = serial;
  parallel.threads = 4;

  CurveSpec facs;
  facs.label = "facs";
  facs.policy = "facs";
  const SweepResult r1 = runSweep(serial, {facs});
  const SweepResult r2 = runSweep(parallel, {facs});
  ASSERT_EQ(r1.curves.size(), 1u);
  ASSERT_EQ(r2.curves.size(), 1u);
  ASSERT_EQ(r1.curves[0].points.size(), r2.curves[0].points.size());
  for (std::size_t i = 0; i < r1.curves[0].points.size(); ++i) {
    const std::vector<Metrics>& a = r1.curves[0].points[i].runs;
    const std::vector<Metrics>& b = r2.curves[0].points[i].runs;
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].toJson(), b[k].toJson()) << "point " << i << " run " << k;
    }
  }
}

TEST(Sweep, ParallelPropagatesWorkerExceptions) {
  SweepSpec spec;
  spec.xs = {5, 10, 15, 20};
  spec.replications = 4;
  spec.threads = 4;
  CurveSpec broken = csCurve("broken");
  broken.base.arrival_window_s = -1.0;  // rejected by validateConfig
  EXPECT_THROW((void)runSweep(spec, {broken}), std::invalid_argument);
}

TEST(Sweep, AcceptanceDeclinesWithLoad) {
  SweepSpec spec;
  spec.xs = {5, 120};
  spec.replications = 3;
  const SweepResult r = runSweep(spec, {csCurve("cs")});
  EXPECT_GT(r.curves[0].points[0].mean, r.curves[0].points[1].mean);
}

TEST(Sweep, OtherMeasuresExtract) {
  SweepSpec spec;
  spec.xs = {40};
  spec.replications = 2;
  const SweepResult blocking =
      runSweep(spec, {csCurve("cs")}, Measure::BlockingProbability);
  const SweepResult util =
      runSweep(spec, {csCurve("cs")}, Measure::MeanUtilization);
  EXPECT_GE(blocking.curves[0].points[0].mean, 0.0);
  EXPECT_LE(blocking.curves[0].points[0].mean, 1.0);
  EXPECT_GE(util.curves[0].points[0].mean, 0.0);
  EXPECT_LE(util.curves[0].points[0].mean, 1.0);
}

TEST(Rendering, TableContainsLabelsAndRows) {
  SweepSpec spec;
  spec.title = "Demo sweep";
  spec.xs = {5, 10};
  spec.replications = 2;
  const SweepResult r = runSweep(spec, {csCurve("policy-x")});
  std::ostringstream os;
  printTable(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo sweep"), std::string::npos);
  EXPECT_NE(out.find("policy-x"), std::string::npos);
  EXPECT_NE(out.find("+/-"), std::string::npos);
  EXPECT_NE(out.find('5'), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
}

TEST(Rendering, CsvHasHeaderAndOneRowPerX) {
  SweepSpec spec;
  spec.xs = {5, 10, 15};
  spec.replications = 2;
  const SweepResult r = runSweep(spec, {csCurve("cs")});
  std::ostringstream os;
  printCsv(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("cs_mean,cs_sd"), std::string::npos);
  int lines = 0;
  for (const char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);  // header + 3 rows
}

TEST(Rendering, JsonCarriesAFullMetricsObjectPerRun) {
  SweepSpec spec;
  spec.title = "JSON sweep";
  spec.xs = {5, 10};
  spec.replications = 3;
  const SweepResult r = runSweep(spec, {csCurve("cs")});
  // Every point kept its replications' full metrics, in replication order.
  for (const CurveResult& curve : r.curves) {
    for (const PointResult& p : curve.points) {
      ASSERT_EQ(p.runs.size(), 3u);
    }
  }
  std::ostringstream os;
  printJson(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"title\": \"JSON sweep\""), std::string::npos);
  EXPECT_NE(out.find("\"label\": \"cs\""), std::string::npos);
  EXPECT_NE(out.find("\"x\": 5"), std::string::npos);
  EXPECT_NE(out.find("\"x\": 10"), std::string::npos);
  // 2 points x 3 replications = 6 embedded metrics objects.
  int runs = 0;
  for (std::size_t at = out.find("\"engine_events\"");
       at != std::string::npos; at = out.find("\"engine_events\"", at + 1)) {
    ++runs;
  }
  EXPECT_EQ(runs, 6);

  // Byte-diffable: an identical sweep renders the identical document (the
  // figure-level analogue of the single-run JSON gate).
  const SweepResult again = runSweep(spec, {csCurve("cs")});
  std::ostringstream os2;
  printJson(os2, again);
  EXPECT_EQ(out, os2.str());
}

}  // namespace
}  // namespace facs::sim
