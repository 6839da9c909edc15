#include "core/facs.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"

namespace facs::core {
namespace {

using cellular::AdmissionContext;
using cellular::BaseStation;
using cellular::CallRequest;
using cellular::ServiceClass;
using cellular::UserSnapshot;

UserSnapshot idealUser() {
  UserSnapshot u;
  u.speed_kmh = 100.0;
  u.angle_deg = 0.0;
  u.distance_km = 1.0;
  u.position = {1.0, 0.0};
  return u;
}

UserSnapshot erraticUser() {
  UserSnapshot u;
  u.speed_kmh = 4.0;
  u.angle_deg = 160.0;
  u.distance_km = 9.0;
  u.position = {9.0, 0.0};
  return u;
}

CallRequest makeRequest(const UserSnapshot& user, ServiceClass service,
                        bool handoff = false) {
  CallRequest r;
  r.call = 1;
  r.user = 1;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.snapshot = user;
  r.target_cell = 0;
  r.is_handoff = handoff;
  return r;
}

TEST(SoftDecisionNames, ToString) {
  EXPECT_EQ(toString(SoftDecision::Reject), "reject");
  EXPECT_EQ(toString(SoftDecision::WeakReject), "weak-reject");
  EXPECT_EQ(toString(SoftDecision::NotRejectNotAccept),
            "not-reject-not-accept");
  EXPECT_EQ(toString(SoftDecision::WeakAccept), "weak-accept");
  EXPECT_EQ(toString(SoftDecision::Accept), "accept");
}

TEST(SoftDecisionNames, OutOfRangeValueIsNotAValidLookingDefault) {
  // A corrupted decision must not log as the neutral middle level.
  EXPECT_EQ(toString(static_cast<SoftDecision>(5)), "invalid");
  EXPECT_EQ(toString(static_cast<SoftDecision>(250)), "invalid");
}

TEST(FacsController, ClassifyMapsOntoFiveLevels) {
  const FacsController facs;
  EXPECT_EQ(facs.classify(-0.95), SoftDecision::Reject);
  EXPECT_EQ(facs.classify(-0.5), SoftDecision::WeakReject);
  EXPECT_EQ(facs.classify(0.0), SoftDecision::NotRejectNotAccept);
  EXPECT_EQ(facs.classify(0.5), SoftDecision::WeakAccept);
  EXPECT_EQ(facs.classify(0.95), SoftDecision::Accept);
}

TEST(FacsController, IdealUserOnEmptyCellIsAccepted) {
  const FacsController facs;
  const FacsEvaluation eval = facs.evaluate(idealUser(), 5.0, 0.0);
  EXPECT_GT(eval.cv, 0.8);
  EXPECT_GT(eval.ar, 0.5);
  EXPECT_TRUE(eval.accept);
  EXPECT_EQ(eval.soft, SoftDecision::Accept);
}

TEST(FacsController, ErraticUserOnFullCellIsRejected) {
  const FacsController facs;
  const FacsEvaluation eval = facs.evaluate(erraticUser(), 10.0, 40.0);
  EXPECT_LT(eval.cv, 0.3);
  EXPECT_FALSE(eval.accept);
}

TEST(FacsController, CascadePassesCvIntoFlc2) {
  const FacsController facs;
  const double cv_good = facs.predictCv(idealUser());
  const double cv_bad = facs.predictCv(erraticUser());
  EXPECT_GT(cv_good, cv_bad + 0.4);

  // At middling occupancy the better prediction translates into a better
  // admission score — the cascade is live.
  const FacsEvaluation good = facs.evaluate(idealUser(), 5.0, 20.0);
  const FacsEvaluation bad = facs.evaluate(erraticUser(), 5.0, 20.0);
  EXPECT_GT(good.ar, bad.ar);
}

TEST(FacsController, OccupancyTightensAdmission) {
  const FacsController facs;
  const FacsEvaluation empty = facs.evaluate(idealUser(), 10.0, 0.0);
  const FacsEvaluation mid = facs.evaluate(idealUser(), 10.0, 20.0);
  const FacsEvaluation full = facs.evaluate(idealUser(), 10.0, 40.0);
  EXPECT_GT(empty.ar, mid.ar - 1e-9);
  EXPECT_GT(mid.ar, full.ar);
  EXPECT_TRUE(empty.accept);
  EXPECT_FALSE(full.accept);  // G & Vi & F -> R
}

TEST(FacsController, ThresholdIsConfigurable) {
  FacsConfig strict;
  strict.accept_threshold = 0.6;
  const FacsController facs{strict};
  // Weak accept (~0.5) fails a 0.6 threshold.
  const FacsEvaluation eval = facs.evaluate(erraticUser(), 10.0, 0.0);
  EXPECT_EQ(eval.soft, SoftDecision::WeakAccept);
  EXPECT_FALSE(eval.accept);
}

TEST(FacsController, PriorityBiasLowersThreshold) {
  FacsConfig cfg;
  cfg.accept_threshold = 0.6;
  cfg.priority_bias = 0.2;
  const FacsController facs{cfg};
  const FacsEvaluation plain = facs.evaluate(erraticUser(), 10.0, 0.0);
  const FacsEvaluation prio =
      facs.evaluate(erraticUser(), 10.0, 0.0, /*is_handoff=*/false,
                    /*priority=*/2);
  EXPECT_FALSE(plain.accept);
  EXPECT_TRUE(prio.accept);  // threshold 0.6 - 0.4 = 0.2 < weak accept
}

TEST(FacsController, HandoffBiasPrioritizesOngoingCalls) {
  FacsConfig cfg;
  cfg.handoff_bias = 0.3;
  const FacsController facs{cfg};
  // A borderline case near ar ~ 0: neutral for new calls, accepted as
  // handoff because dropping is worse than blocking (Section 1).
  UserSnapshot u = idealUser();
  u.speed_kmh = 4.0;
  u.angle_deg = 0.0;
  u.distance_km = 9.0;  // Sl & St & F -> Cv3 -> middling
  const FacsEvaluation as_new = facs.evaluate(u, 5.0, 25.0, false);
  const FacsEvaluation as_handoff = facs.evaluate(u, 5.0, 25.0, true);
  EXPECT_EQ(as_new.ar, as_handoff.ar);  // same fuzzy output...
  EXPECT_TRUE(!as_new.accept || as_handoff.accept);  // ...easier admission
}

TEST(FacsController, DecideHonoursLedgerCapacity) {
  FacsController facs;
  BaseStation bs{0, 40};
  bs.allocate(99, 33, true);  // 7 BU free: fuzzy Cs=33 is not yet Full

  // Voice (5 BU) still fits; video (10 BU) does not, whatever FLC2 says.
  const AdmissionContext ctx{bs, 0.0};
  const auto voice =
      facs.decide(makeRequest(idealUser(), ServiceClass::Voice), ctx);
  const auto video =
      facs.decide(makeRequest(idealUser(), ServiceClass::Video), ctx);
  EXPECT_FALSE(video.accept);  // cannot fit 10 BU into 7
  // The fuzzy score is reported either way.
  EXPECT_GE(voice.score, -1.0);
  EXPECT_LE(voice.score, 1.0);
}

TEST(FacsController, DecideRationaleIsOptIn) {
  FacsController facs;
  BaseStation bs{0, 40};

  // Hot path (explain off): no rationale text, only the reason code.
  const AdmissionContext fast_ctx{bs, 0.0};
  const auto fast =
      facs.decide(makeRequest(idealUser(), ServiceClass::Text), fast_ctx);
  EXPECT_TRUE(fast.accept);
  EXPECT_EQ(fast.reason, cellular::ReasonCode::Admitted);
  EXPECT_TRUE(fast.rationale.empty());

  // Explain mode: rationale names both fuzzy stages.
  const AdmissionContext explain_ctx{bs, 0.0, /*explain=*/true};
  const auto d =
      facs.decide(makeRequest(idealUser(), ServiceClass::Text), explain_ctx);
  EXPECT_TRUE(d.accept);
  EXPECT_NE(d.rationale.find("cv="), std::string::npos);
  EXPECT_NE(d.rationale.find("ar="), std::string::npos);
  EXPECT_NE(d.rationale.find("soft="), std::string::npos);
}

TEST(FacsController, PrecomputeMatchesPredictCv) {
  const FacsController facs;
  for (const UserSnapshot& u : {idealUser(), erraticUser()}) {
    const cellular::PredictedCv p = facs.precompute(u);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.cv, facs.predictCv(u));  // exact: same inference
  }
}

TEST(FacsController, DecideConsumesPrecomputedCvBitIdentically) {
  FacsController facs;
  BaseStation bs{0, 40};
  bs.allocate(99, 20, true);

  for (const UserSnapshot& u : {idealUser(), erraticUser()}) {
    for (const bool handoff : {false, true}) {
      const CallRequest req = makeRequest(u, ServiceClass::Voice, handoff);
      const AdmissionContext inline_ctx{bs, 0.0};
      AdmissionContext precomputed_ctx{bs, 0.0};
      precomputed_ctx.predicted = facs.precompute(u);

      const auto a = facs.decide(req, inline_ctx);
      const auto b = facs.decide(req, precomputed_ctx);
      EXPECT_EQ(a.accept, b.accept);
      EXPECT_EQ(a.reason, b.reason);
      EXPECT_EQ(a.score, b.score);  // exact double equality on purpose
    }
  }
}

TEST(FacsController, StalePrecomputedCvIsHonoured) {
  // decide() trusts context.predicted verbatim — keeping it coherent with
  // the snapshot is the caller's contract (the simulator re-runs
  // precompute() whenever mobility changes a snapshot). A mismatched CV
  // must therefore change the score, proving the value is actually used.
  FacsController facs;
  BaseStation bs{0, 40};
  bs.allocate(99, 20, true);
  const CallRequest req = makeRequest(erraticUser(), ServiceClass::Voice);

  AdmissionContext stale_ctx{bs, 0.0};
  stale_ctx.predicted = facs.precompute(idealUser());  // wrong snapshot
  const AdmissionContext fresh_ctx{bs, 0.0};
  const auto stale = facs.decide(req, stale_ctx);
  const auto fresh = facs.decide(req, fresh_ctx);
  EXPECT_NE(stale.score, fresh.score);
  EXPECT_EQ(stale.score,
            facs.evaluate(facs.predictCv(idealUser()), 5.0, 20.0).ar);
}

TEST(FacsController, EvaluateBatchMatchesStandaloneEvaluate) {
  const FacsController facs;
  std::vector<PendingDecision> batch;
  // A spread of (cv, demand, occupancy, handoff, priority) combinations,
  // including ledger states that differ per entry — the commit phase's
  // reality (each decision sees the occupancy its predecessors left).
  for (double cv : {0.05, 0.35, 0.65, 0.95}) {
    for (double occupied : {0.0, 15.0, 30.0, 40.0}) {
      PendingDecision p;
      p.cv = cv;
      p.demand_bu = occupied < 20.0 ? 10.0 : 5.0;
      p.occupied_bu = occupied;
      p.is_handoff = cv > 0.5;
      p.priority = cv > 0.9 ? 1 : 0;
      batch.push_back(p);
    }
  }
  facs.evaluateBatch(batch);
  for (const PendingDecision& p : batch) {
    const FacsEvaluation solo =
        facs.evaluate(p.cv, p.demand_bu, p.occupied_bu, p.is_handoff,
                      p.priority);
    EXPECT_EQ(p.eval.ar, solo.ar);  // bit-identical, not just close
    EXPECT_EQ(p.eval.cv, solo.cv);
    EXPECT_EQ(p.eval.soft, solo.soft);
    EXPECT_EQ(p.eval.accept, solo.accept);
  }
}

TEST(FacsController, EvaluateBatchMemoizesRepeatedSharedInputs) {
  const FacsController facs;
  // A commit-window batch: Cs holds still across runs of decisions (the
  // fuzzification memo's target case), then moves mid-batch; some entries
  // repeat completely. Every result must still equal a standalone
  // evaluate() bit for bit.
  std::vector<PendingDecision> batch;
  const double cs_runs[] = {20.0, 20.0, 20.0, 25.0, 25.0, 20.0};
  int k = 0;
  for (double cs : cs_runs) {
    PendingDecision p;
    p.cv = (k % 3 == 0) ? 0.4 : 0.4 + 0.1 * (k % 3);  // repeats then moves
    p.demand_bu = (k % 2 == 0) ? 5.0 : 10.0;
    p.occupied_bu = cs;
    ++k;
    batch.push_back(p);
    batch.push_back(p);  // exact duplicate: full-entry memo hit
  }
  facs.evaluateBatch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PendingDecision& p = batch[i];
    const FacsEvaluation solo =
        facs.evaluate(p.cv, p.demand_bu, p.occupied_bu, p.is_handoff,
                      p.priority);
    EXPECT_EQ(p.eval.ar, solo.ar) << "entry " << i;
    EXPECT_EQ(p.eval.accept, solo.accept) << "entry " << i;
  }
}

TEST(FacsController, InterleavedControllersNeverShareBatchState) {
  // decide() routes through a per-thread BatchScratch shared by every
  // controller on the thread. Two differently-configured controllers fed
  // the same inputs back to back must each keep their own answers — the
  // seal-id keying drops the other engine's memo.
  FacsConfig prod_cfg;
  prod_cfg.flc2.conjunction = fuzzy::TNorm::AlgebraicProduct;
  prod_cfg.flc2.implication = fuzzy::TNorm::AlgebraicProduct;
  prod_cfg.flc2.aggregation = fuzzy::SNorm::AlgebraicSum;
  FacsController minmax;
  FacsController prod{prod_cfg};

  BaseStation bs{0, 40};
  bs.allocate(1, 17, true);
  const AdmissionContext ctx{bs, 0.0};
  const CallRequest req = makeRequest(idealUser(), ServiceClass::Voice);

  const double minmax_score = minmax.decide(req, ctx).score;
  const double prod_score = prod.decide(req, ctx).score;
  ASSERT_NE(minmax_score, prod_score);  // the configs genuinely differ
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(minmax.decide(req, ctx).score, minmax_score);
    EXPECT_EQ(prod.decide(req, ctx).score, prod_score);
  }
}

TEST(FacsController, EvaluateByCvMatchesSnapshotOverload) {
  const FacsController facs;
  const UserSnapshot u = idealUser();
  const FacsEvaluation via_snapshot = facs.evaluate(u, 5.0, 20.0);
  const FacsEvaluation via_cv = facs.evaluate(facs.predictCv(u), 5.0, 20.0);
  EXPECT_EQ(via_snapshot.cv, via_cv.cv);
  EXPECT_EQ(via_snapshot.ar, via_cv.ar);
  EXPECT_EQ(via_snapshot.accept, via_cv.accept);
}

TEST(FacsController, ExplainRationaleFitsTheInlineBufferUntruncated) {
  FacsController facs;
  BaseStation bs{0, 40};
  const AdmissionContext ctx{bs, 0.0, /*explain=*/true};
  const auto d = facs.decide(makeRequest(idealUser(), ServiceClass::Text),
                             ctx);
  EXPECT_FALSE(d.rationale.truncated());
  EXPECT_LE(d.rationale.size(), cellular::ReasonText::kCapacity);
}

TEST(FacsController, NameAndAccessors) {
  const FacsController facs;
  EXPECT_EQ(facs.name(), "FACS");
  EXPECT_EQ(facs.flc1().name(), "FLC1");
  EXPECT_EQ(facs.flc2().name(), "FLC2");
  EXPECT_DOUBLE_EQ(facs.config().accept_threshold, 0.0);
}

/// One controller from \p factory, on a one-cell network.
std::unique_ptr<cellular::AdmissionController> fromFactory(
    const cellular::ControllerFactory& factory) {
  const cellular::HexNetwork net{0};
  return factory(net);
}

const FacsController& asFacs(
    const std::unique_ptr<cellular::AdmissionController>& controller) {
  const auto* facs = dynamic_cast<const FacsController*>(controller.get());
  if (facs == nullptr) throw std::logic_error("not a FACS controller");
  return *facs;
}

TEST(FacsFactory, ControllersOfOneFactoryShareTheirEngines) {
  const cellular::PolicyRuntime& runtime =
      cellular::PolicyRuntime::defaultRuntime();
  const cellular::ControllerFactory factory = runtime.makeFactory("facs");
  const auto a = fromFactory(factory);
  const auto b = fromFactory(factory);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(&asFacs(a).flc1(), &asFacs(b).flc1());
  EXPECT_EQ(&asFacs(a).flc2(), &asFacs(b).flc2());

  // Another spec is another factory with engines of its own.
  const auto coarse = fromFactory(runtime.makeFactory("facs:res=251"));
  EXPECT_NE(&asFacs(coarse).flc1(), &asFacs(a).flc1());
  EXPECT_NE(&asFacs(coarse).flc2(), &asFacs(a).flc2());
  EXPECT_EQ(asFacs(coarse).flc1().config().resolution, 251);
  EXPECT_EQ(asFacs(a).flc1().config().resolution, 1001);

  // A controller built from a config builds its own pair.
  const FacsController own;
  EXPECT_NE(&own.flc1(), &asFacs(a).flc1());
}

TEST(FacsFactory, SharedEnginesDecideLikeOwnEngines) {
  const auto shared =
      fromFactory(cellular::PolicyRuntime::defaultRuntime().makeFactory(
          "facs:ops=prod,defuzz=bisector"));
  FacsConfig cfg;
  for (fuzzy::EngineConfig* e : {&cfg.flc1, &cfg.flc2}) {
    e->conjunction = fuzzy::TNorm::AlgebraicProduct;
    e->implication = fuzzy::TNorm::AlgebraicProduct;
    e->aggregation = fuzzy::SNorm::AlgebraicSum;
    e->defuzzifier = fuzzy::Defuzzifier::Bisector;
  }
  const FacsController own{cfg};
  for (double cs = 0.0; cs <= 40.0; cs += 4.0) {
    const FacsEvaluation x = asFacs(shared).evaluate(erraticUser(), 5.0, cs);
    const FacsEvaluation y = own.evaluate(erraticUser(), 5.0, cs);
    EXPECT_EQ(x.cv, y.cv);
    EXPECT_EQ(x.ar, y.ar);
  }
}

/// The acceptance region grows as occupancy falls, for every service class
/// — the soft-decision analogue of "a good CAC balances blocking and
/// dropping".
class FacsOccupancySweep : public ::testing::TestWithParam<ServiceClass> {};

TEST_P(FacsOccupancySweep, AcceptanceMonotoneInFreeCapacity) {
  const FacsController facs;
  const double demand = cellular::profileFor(GetParam()).demand_bu;
  bool was_rejected_before_accepted = false;
  bool seen_accept = false;
  for (double cs = 40.0; cs >= 0.0; cs -= 1.0) {
    const FacsEvaluation eval = facs.evaluate(idealUser(), demand, cs);
    if (eval.accept) {
      seen_accept = true;
    } else if (seen_accept) {
      was_rejected_before_accepted = true;  // non-monotone flip
    }
  }
  EXPECT_TRUE(seen_accept);
  EXPECT_FALSE(was_rejected_before_accepted);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, FacsOccupancySweep,
                         ::testing::Values(ServiceClass::Text,
                                           ServiceClass::Voice,
                                           ServiceClass::Video));

}  // namespace
}  // namespace facs::core
