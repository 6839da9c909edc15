#include "core/facs.hpp"

#include <array>

#include "cellular/policy_registry.hpp"

namespace facs::core {

std::string_view toString(SoftDecision d) noexcept {
  switch (d) {
    case SoftDecision::Reject:
      return "reject";
    case SoftDecision::WeakReject:
      return "weak-reject";
    case SoftDecision::NotRejectNotAccept:
      return "not-reject-not-accept";
    case SoftDecision::WeakAccept:
      return "weak-accept";
    case SoftDecision::Accept:
      return "accept";
  }
  // Out-of-range values (a corrupted decision) must not read like a
  // legitimate soft level in logs.
  return "invalid";
}

FacsController::FacsController(FacsConfig config)
    : config_{config},
      flc1_{std::make_shared<const fuzzy::MamdaniEngine>(
          buildFlc1(config.flc1))},
      flc2_{std::make_shared<const fuzzy::MamdaniEngine>(
          buildFlc2(config.flc2))} {}

double FacsController::predictCv(const cellular::UserSnapshot& user) const {
  const std::array<double, 3> inputs{user.speed_kmh, user.angle_deg,
                                     user.distance_km};
  return flc1_->infer(inputs);
}

SoftDecision FacsController::classify(double ar) const {
  // Term order in FLC2's output variable matches the SoftDecision values.
  return static_cast<SoftDecision>(flc2_->output().winningTerm(ar));
}

cellular::PredictedCv FacsController::precompute(
    const cellular::UserSnapshot& user) const {
  return {predictCv(user), true};
}

FacsEvaluation FacsController::finishEvaluation(double cv, double ar,
                                                bool is_handoff,
                                                int priority) const {
  FacsEvaluation eval;
  eval.cv = cv;
  eval.ar = ar;
  eval.soft = classify(ar);

  double threshold = config_.accept_threshold;
  threshold -= config_.priority_bias * priority;
  if (is_handoff) threshold -= config_.handoff_bias;
  // Ties reject: a defuzzified A/R within numerical noise of the threshold
  // (e.g. a pure "not reject not accept" outcome against tau = 0) must not
  // flip on the sign of a 1e-18 rounding residue.
  constexpr double kDecisionEpsilon = 1e-9;
  eval.accept = ar > threshold + kDecisionEpsilon;
  return eval;
}

FacsEvaluation FacsController::evaluate(double predicted_cv, double demand_bu,
                                        double occupied_bu, bool is_handoff,
                                        int priority) const {
  const std::array<double, 3> inputs{predicted_cv, demand_bu, occupied_bu};
  return finishEvaluation(predicted_cv, flc2_->infer(inputs), is_handoff,
                          priority);
}

FacsEvaluation FacsController::evaluate(const cellular::UserSnapshot& user,
                                        double demand_bu, double occupied_bu,
                                        bool is_handoff, int priority) const {
  return evaluate(predictCv(user), demand_bu, occupied_bu, is_handoff,
                  priority);
}

void FacsController::evaluateBatch(std::span<PendingDecision> batch) const {
  // In order: each entry carries the ledger state of its own decision
  // instant, so there is nothing to reorder. The span flattens into an
  // entry-major input array and runs through FLC2's batch kernel —
  // sample-grid aggregation plus fuzzification memoized across consecutive
  // entries with an unchanged input. The scratch is per-thread and keyed to
  // the engine's id, so the memo also spans consecutive decide() calls (a
  // batch of one each) within a commit lane — and, since a factory's
  // controllers share one FLC2, consecutive runs on one thread — while
  // concurrent lanes never share state.
  static thread_local fuzzy::BatchScratch scratch;
  static thread_local std::vector<double> inputs;
  static thread_local std::vector<double> outputs;
  inputs.clear();
  inputs.reserve(batch.size() * 3);
  for (const PendingDecision& pending : batch) {
    inputs.push_back(pending.cv);
    inputs.push_back(pending.demand_bu);
    inputs.push_back(pending.occupied_bu);
  }
  outputs.resize(batch.size());
  flc2_->inferBatch(inputs, outputs, scratch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].eval = finishEvaluation(batch[i].cv, outputs[i],
                                     batch[i].is_handoff, batch[i].priority);
  }
}

cellular::AdmissionDecision FacsController::decide(
    const cellular::CallRequest& request,
    const cellular::AdmissionContext& context) {
  // FLC1 ran at request time iff the caller precomputed it (the sharded
  // simulator's parallel prepare phase); otherwise run it inline. Same
  // function of the same snapshot, so the decision is identical either way.
  PendingDecision pending;
  pending.cv = context.predicted.valid ? context.predicted.cv
                                       : predictCv(request.snapshot);
  pending.demand_bu = static_cast<double>(request.demand_bu);
  pending.occupied_bu = static_cast<double>(context.station.occupiedBu());
  pending.is_handoff = request.is_handoff;
  pending.priority = request.priority;
  evaluateBatch({&pending, 1});
  const FacsEvaluation& eval = pending.eval;

  // The fuzzy stages never see the hard ledger; enforce the capacity
  // invariant here so an "accept" is always allocatable.
  const bool fits = context.station.canFit(request.demand_bu);

  cellular::AdmissionDecision decision;
  decision.accept = eval.accept && fits;
  decision.reason = decision.accept ? cellular::ReasonCode::Admitted
                    : eval.accept   ? cellular::ReasonCode::NoCapacity
                                    : cellular::ReasonCode::FuzzyReject;
  decision.score = eval.ar;
  if (context.explain) {
    const std::string_view soft = toString(eval.soft);
    decision.rationale.appendf("cv=%g ar=%g soft=%.*s", eval.cv, eval.ar,
                               static_cast<int>(soft.size()), soft.data());
    if (eval.accept && !fits) decision.rationale.appendf(" (no free BU)");
  }
  return decision;
}

// ------------------------------------------------------------------------
namespace {

using cellular::PolicyRegistrar;
using cellular::PolicySpec;
using cellular::PolicySpecError;

/// Operator-family shorthand used by the design ablations: `ops=minmax`
/// (the paper's min/max Mamdani), `ops=prod` (Larsen product/probor) or
/// `ops=luk` (Lukasiewicz conjunction).
void applyOperatorFamily(FacsConfig& cfg, const std::string& ops) {
  if (ops == "minmax") return;
  if (ops == "prod") {
    for (fuzzy::EngineConfig* e : {&cfg.flc1, &cfg.flc2}) {
      e->conjunction = fuzzy::TNorm::AlgebraicProduct;
      e->implication = fuzzy::TNorm::AlgebraicProduct;
      e->aggregation = fuzzy::SNorm::AlgebraicSum;
    }
    return;
  }
  if (ops == "luk") {
    cfg.flc1.conjunction = fuzzy::TNorm::BoundedDifference;
    cfg.flc2.conjunction = fuzzy::TNorm::BoundedDifference;
    return;
  }
  throw PolicySpecError("policy 'facs': unknown ops '" + ops +
                        "' (minmax|prod|luk)");
}

fuzzy::Defuzzifier parseDefuzzifier(const std::string& name) {
  if (name == "centroid") return fuzzy::Defuzzifier::Centroid;
  if (name == "bisector") return fuzzy::Defuzzifier::Bisector;
  if (name == "mom") return fuzzy::Defuzzifier::MeanOfMax;
  if (name == "som") return fuzzy::Defuzzifier::SmallestOfMax;
  if (name == "lom") return fuzzy::Defuzzifier::LargestOfMax;
  throw PolicySpecError("policy 'facs': unknown defuzzifier '" + name +
                        "' (centroid|bisector|mom|som|lom)");
}

const PolicyRegistrar register_facs{
    {"facs",
     "The paper's Fuzzy Admission Control System (FLC1 prediction cascaded "
     "into FLC2 admission).",
     "facs[:TAU][,tau=T,handoff=H,priority=P,ops=minmax|prod|luk,"
     "defuzz=centroid|bisector|mom|som|lom,res=N]"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(1, {"tau", "handoff", "priority", "ops", "defuzz",
                          "res"});
      FacsConfig cfg;
      cfg.accept_threshold = spec.numberFor("tau", spec.numberAt(0, 0.0));
      cfg.handoff_bias = spec.numberFor("handoff", cfg.handoff_bias);
      cfg.priority_bias = spec.numberFor("priority", cfg.priority_bias);
      applyOperatorFamily(cfg, spec.keywordFor("ops", "minmax"));
      if (spec.hasKey("defuzz")) {
        const fuzzy::Defuzzifier d =
            parseDefuzzifier(spec.keywordFor("defuzz", "centroid"));
        cfg.flc1.defuzzifier = d;
        cfg.flc2.defuzzifier = d;
      }
      if (spec.hasKey("res")) {
        const int res = spec.intFor("res", 1001);
        if (res < 2 || res > fuzzy::kMaxResolution) {
          throw PolicySpecError(
              "policy 'facs': defuzzification resolution must be in [2, " +
              std::to_string(fuzzy::kMaxResolution) + "]");
        }
        cfg.flc1.resolution = res;
        cfg.flc2.resolution = res;
      }
      // Both engines are built here, once per parsed spec; every
      // controller the factory makes copies the prototype and so shares
      // them (they are immutable, with per-thread inference scratch).
      auto prototype = std::make_shared<const FacsController>(cfg);
      return [prototype](const cellular::HexNetwork&) {
        return std::make_unique<FacsController>(*prototype);
      };
    }};

}  // namespace

}  // namespace facs::core
