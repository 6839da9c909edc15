#pragma once
/// \file facs.hpp
/// FACS — the paper's Fuzzy Admission Control System (Fig. 4): the FLC1
/// prediction stage cascaded into the FLC2 admission stage, plus the
/// differentiated-service bookkeeping (Ds routing into the RTC / NRTC
/// counters, which the base-station ledger maintains).

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "cellular/admission.hpp"
#include "core/flc1.hpp"
#include "core/flc2.hpp"

namespace facs::core {

/// The paper's five-level soft admission decision (Section 3.2): "not only
/// 'accept' and 'reject' but also 'weak accept', 'weak reject', and 'not
/// accept not reject'".
enum class SoftDecision : std::uint8_t {
  Reject = 0,
  WeakReject = 1,
  NotRejectNotAccept = 2,
  WeakAccept = 3,
  Accept = 4,
};

[[nodiscard]] std::string_view toString(SoftDecision d) noexcept;

/// Tunables of the FACS controller.
struct FacsConfig {
  fuzzy::EngineConfig flc1;  ///< Operators of the prediction stage.
  fuzzy::EngineConfig flc2;  ///< Operators of the admission stage.

  /// A request is admitted iff the crisp A/R value exceeds this threshold.
  /// 0 is the neutral midpoint of the output universe (the centre of the
  /// "not reject not accept" term); swept by bench/ablation_design.
  double accept_threshold = 0.0;

  /// Future-work hook (paper Section 5: call priorities). The effective
  /// threshold is lowered by priority_bias * request.priority, so positive
  /// priorities make admission easier. Requests default to priority 0, so
  /// this has no effect unless a workload assigns priorities.
  double priority_bias = 0.1;

  /// Handoff prioritisation: lower the threshold for handoff requests by
  /// this amount (users are "much more sensitive to call dropping than to
  /// call blocking", Section 1). Disabled (0) by default to match the
  /// paper's single-threshold evaluation.
  double handoff_bias = 0.0;
};

/// Outcome of one full FACS evaluation (both stages).
struct FacsEvaluation {
  double cv = 0.0;        ///< FLC1 output: correction value in [0, 1].
  double ar = 0.0;        ///< FLC2 output: crisp A/R in [-1, 1].
  SoftDecision soft = SoftDecision::NotRejectNotAccept;
  bool accept = false;
};

/// One admission awaiting its FLC2 stage: the inputs are known (the Cv from
/// a precompute() or inline FLC1 run, the demand, and the ledger state at
/// the decision instant), the evaluation is filled in by evaluateBatch().
struct PendingDecision {
  double cv = 0.0;           ///< FLC1 output for this request.
  double demand_bu = 0.0;    ///< R: requested bandwidth.
  double occupied_bu = 0.0;  ///< Cs: occupied BUs at the decision instant.
  bool is_handoff = false;
  int priority = 0;
  FacsEvaluation eval{};     ///< Out: filled by evaluateBatch().
};

/// The complete admission system. Stateless between calls apart from the
/// immutable engines, so one instance may serve many cells concurrently.
/// A copy shares its original's engines: the `facs` policy factory builds
/// FLC1 and FLC2 once, when its spec is parsed, and every controller it
/// makes is a copy of one prototype.
class FacsController final : public cellular::AdmissionController {
 public:
  /// Builds both engines from \p config.
  explicit FacsController(FacsConfig config = {});

  [[nodiscard]] std::string name() const override { return "FACS"; }

  /// Decisions read only the request (Cv, demand) and the target cell's
  /// counter state; the engines are immutable and inference scratch is
  /// per-thread. Group commit lanes may therefore run FLC2 for
  /// disjoint cells concurrently, bit-identically.
  [[nodiscard]] cellular::CommitScope commitScope() const noexcept override {
    return cellular::CommitScope::CellLocal;
  }

  /// Full two-stage evaluation from raw measurements. \p occupied_bu is the
  /// counter state Cs of the target base station.
  [[nodiscard]] FacsEvaluation evaluate(const cellular::UserSnapshot& user,
                                        double demand_bu, double occupied_bu,
                                        bool is_handoff = false,
                                        int priority = 0) const;

  /// Admission stage only, from an already-predicted Cv — what decide()
  /// runs when the caller precomputed FLC1 off the serialized path.
  /// Bit-identical to the snapshot overload fed the same Cv.
  [[nodiscard]] FacsEvaluation evaluate(double predicted_cv, double demand_bu,
                                        double occupied_bu,
                                        bool is_handoff = false,
                                        int priority = 0) const;

  /// Prediction stage only: Cv from (S, A, D).
  [[nodiscard]] double predictCv(const cellular::UserSnapshot& user) const;

  /// FLC1 as a request-time precompute: depends only on the snapshot, so
  /// the simulator runs it in the parallel prepare phase. Thread-safe (the
  /// engines are immutable; scratch state is per-thread).
  [[nodiscard]] cellular::PredictedCv precompute(
      const cellular::UserSnapshot& user) const override;

  /// Runs the FLC2 admission stage over every entry, in order. This is THE
  /// FLC2 execution path: decide() routes each decision through it as a
  /// batch of one, so the serialized commit phase always lands here. The
  /// rule-evaluation setup a decision used to pay — structural validation
  /// (done once, when the engine is built) and inference-buffer allocation
  /// (a warm per-thread scratch) — is amortized across all decisions of a
  /// tick window whether they arrive as one span or as consecutive decide()
  /// calls, and the batch runs MamdaniEngine::inferBatch: aggregation
  /// iterates FLC2's sample-grid tables and fuzzification of each
  /// input is memoized across consecutive entries whose crisp value is
  /// unchanged (Cs rarely moves between a window's decisions). Entries
  /// carry their own ledger state and are never reordered (each decision's
  /// occupancy input depends on its predecessors' outcomes); each result is
  /// bit-identical to a standalone evaluate().
  void evaluateBatch(std::span<PendingDecision> batch) const;

  /// Consumes context.predicted when valid (the precomputed FLC1 output);
  /// falls back to inline FLC1 inference otherwise. Same decision either
  /// way, bit for bit.
  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;

  /// Maps a crisp A/R value onto the paper's five-level soft decision
  /// (winning output term of FLC2).
  [[nodiscard]] SoftDecision classify(double ar) const;

  [[nodiscard]] const fuzzy::MamdaniEngine& flc1() const noexcept {
    return *flc1_;
  }
  [[nodiscard]] const fuzzy::MamdaniEngine& flc2() const noexcept {
    return *flc2_;
  }
  [[nodiscard]] const FacsConfig& config() const noexcept { return config_; }

 private:
  /// Threshold logic + soft classification around a crisp A/R value — the
  /// single back half both evaluate() and evaluateBatch() share.
  [[nodiscard]] FacsEvaluation finishEvaluation(double cv, double ar,
                                               bool is_handoff,
                                               int priority) const;

  FacsConfig config_;
  std::shared_ptr<const fuzzy::MamdaniEngine> flc1_;
  std::shared_ptr<const fuzzy::MamdaniEngine> flc2_;
};

}  // namespace facs::core
