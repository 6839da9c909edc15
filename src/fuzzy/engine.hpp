#pragma once
/// \file engine.hpp
/// The Mamdani fuzzy logic controller: fuzzifier, inference engine, fuzzy
/// rule base and defuzzifier — the four FLC elements of the paper's Fig. 2.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzzy/defuzzify.hpp"
#include "fuzzy/norms.hpp"
#include "fuzzy/rule.hpp"
#include "fuzzy/variable.hpp"

namespace facs::fuzzy {

/// Largest defuzzification resolution an engine accepts. An engine keeps
/// (output terms + 2) x resolution doubles of sample-grid tables, so this
/// caps FLC1's nine-term tables at about 9 MB; the finest grid the repo
/// uses is 4001 samples. A sanity bound on input, not a tuning option.
inline constexpr int kMaxResolution = 100'001;

/// Operator configuration of a Mamdani controller.
struct EngineConfig {
  TNorm conjunction = TNorm::Minimum;    ///< Combines antecedent degrees.
  TNorm implication = TNorm::Minimum;    ///< Applies firing strength to the consequent (clip).
  SNorm aggregation = SNorm::Maximum;    ///< Merges rule outputs.
  Defuzzifier defuzzifier = Defuzzifier::Centroid;
  int resolution = 1001;                 ///< Output-universe samples, in [2, kMaxResolution].
};

/// One rule by term names: one antecedent entry per input variable, in
/// input order ("*" or "any" leaves that input unconstrained).
struct RuleSpec {
  std::vector<std::string> antecedent;
  std::string consequent;
  double weight = 1.0;  ///< In (0, 1]; scales the firing strength.
};

/// Everything a MamdaniEngine is built from, as plain data: fill it (by
/// hand, from FDL text or from the paper's tables) and move it into the
/// engine's constructor.
struct EngineSpec {
  std::string name;
  EngineConfig config;
  std::vector<LinguisticVariable> inputs;
  std::optional<LinguisticVariable> output;
  /// Read only while the engine is built (the names resolve to term
  /// indices), so the viewed rules need outlive just the constructor call.
  /// A view rather than a vector lets FLC1 and FLC2 point at rule lists
  /// built once per process: a controller build then allocates nothing per
  /// rule name.
  std::span<const RuleSpec> rules;
};

/// Reusable working buffers of one inference. One scratch serves any number
/// of engines (each inference resizes the buffers to its own shape), so a
/// warm scratch keeps the steady state free of heap traffic.
struct InferenceScratch {
  std::vector<FuzzyVector> fuzzified;
  std::vector<double> strengths;
  std::vector<double> term_activation;
  /// Aggregated curve on the sample grid; an inference writes and reads
  /// only the samples its active terms can reach, so the rest is stale.
  std::vector<double> curve_mu;
  DefuzzScratch defuzz;
};

/// Working state of the batch inference path: the per-entry buffers plus the
/// fuzzification memo. Unlike InferenceScratch, a BatchScratch is bound to
/// one engine at a time — the memo caches the previous entry's fuzzified
/// degrees (and output) and is only valid against the engine that produced
/// them, so inferBatch() drops the memo whenever the scratch last served an
/// engine with a different id.
struct BatchScratch {
  InferenceScratch inference;
  std::vector<double> last_inputs;  ///< Previous entry's crisp inputs.
  double last_output = 0.0;
  bool warm = false;                ///< Memo holds the previous entry.
  std::uint64_t engine_id = 0;      ///< Which engine the memo belongs to.
};

/// Per-rule diagnostic from a traced inference.
struct RuleActivation {
  std::size_t rule_index = 0;
  double firing_strength = 0.0;  ///< After conjunction and weighting.
};

/// Full diagnostic of one inference step (for tests, examples and the
/// operator dashboard example application).
struct InferenceTrace {
  std::vector<double> inputs;               ///< Crisp inputs (clamped).
  std::vector<FuzzyVector> fuzzified;       ///< Degrees per input variable.
  std::vector<RuleActivation> activations;  ///< Rules with strength > 0.
  double crisp_output = 0.0;
  std::size_t winning_output_term = 0;      ///< Output term closest to crisp value.
};

/// A rule of an EngineSpec the engine cannot accept: the wrong arity, an
/// unknown term name, a weight outside (0, 1], or a consequent that
/// conflicts with an earlier rule of the same antecedent. rule() indexes
/// EngineSpec::rules (the later rule of a conflicting pair), so a front end
/// such as the FDL parser can point at the rule's own source line.
class RuleError : public std::invalid_argument {
 public:
  RuleError(std::size_t rule, const std::string& message)
      : std::invalid_argument{message}, rule_{rule} {}
  [[nodiscard]] std::size_t rule() const noexcept { return rule_; }

 private:
  std::size_t rule_;
};

/// A complete single-output Mamdani controller, immutable once built.
///
/// The constructor resolves the spec's rule names, validates the structure
/// and precomputes the output sample-grid tables — the defuzzification
/// x-grid, its trapezoid weights and every output term's membership at
/// every grid point (an SoA termCount x resolution array) together with the
/// range of samples where each term is nonzero. Every inference runs one
/// path with no re-check: it fires every rule, folds each active term's row
/// only over its nonzero samples, and defuzzifies only the hull of those
/// samples. Every skipped operation would have contributed an exact zero,
/// so the result is bit-identical to folding every term at every sample.
/// Being immutable, an engine is safe to share across threads for
/// concurrent infer() calls.
class MamdaniEngine {
 public:
  /// \throws std::invalid_argument on an empty name or a resolution
  ///         outside [2, kMaxResolution];
  ///         RuleError on a rule with the wrong arity, an unknown term or a
  ///         weight outside (0, 1], or on two rules that share an
  ///         antecedent but disagree on the consequent;
  ///         std::logic_error on a structural defect: no inputs, no output,
  ///         a variable without terms or an empty rule base.
  explicit MamdaniEngine(EngineSpec spec);

  /// \name Introspection
  ///@{
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t inputCount() const noexcept {
    return inputs_.size();
  }
  [[nodiscard]] const LinguisticVariable& input(std::size_t i) const {
    return inputs_.at(i);
  }
  [[nodiscard]] const std::vector<LinguisticVariable>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const LinguisticVariable& output() const noexcept {
    return output_;
  }
  [[nodiscard]] const RuleBase& rules() const noexcept { return rules_; }
  ///@}

  /// Defuzzification tables built by the constructor. The grid and weights
  /// depend only on (universe, resolution); term_mu is term-major — term
  /// t's row is [t * x.size(), (t+1) * x.size()) — so the aggregation inner
  /// loop walks contiguous doubles. Row t equals term t's degree() at every
  /// sample, and is nonzero only on support[t]: each row is filled outward
  /// from the first sample at or above the term's peak() up to the first
  /// exactly-zero sample on each side (the zero-tail contract of
  /// MembershipFunction), and the rest of the row is zero from the start.
  /// tables() is an inspection hook for the table tests, which compare
  /// each row and its support with a full-grid tabulateTerm(); inference
  /// needs no caller to read it.
  struct OutputTables {
    std::vector<double> x;        ///< Sample grid over the output universe.
    std::vector<double> half_dx;  ///< Trapezoid weights, 0.5 * segment dx.
    std::vector<double> term_mu;  ///< termCount x resolution, term-major.
    std::vector<SampleRange> support;  ///< Per term: its nonzero samples.
  };
  [[nodiscard]] const OutputTables& tables() const noexcept { return tables_; }

  /// Runs one inference; \p crisp_inputs are clamped to each variable's
  /// universe. Reuses a per-thread scratch, so a warm thread allocates
  /// nothing. \throws std::invalid_argument on arity mismatch.
  [[nodiscard]] double infer(std::span<const double> crisp_inputs) const;

  /// Batch inference: \p crisp_inputs holds the entries back to back,
  /// entry-major (entry e's inputs at [e * inputCount(), (e+1) *
  /// inputCount())), and \p outputs receives one crisp value per entry.
  /// Fuzzification of each input variable is memoized across consecutive
  /// entries whose crisp value is unchanged (in a commit window the shared
  /// Cs input rarely moves between decisions); an entry whose inputs all
  /// repeat reuses the previous output outright. Both shortcuts reuse pure
  /// functions of identical inputs, so every entry is bit-identical to a
  /// standalone infer(). The memo survives across calls when the same
  /// scratch keeps serving the same engine (or a copy of it) — consecutive
  /// decide() calls batch as well as one span does.
  /// \throws std::invalid_argument when crisp_inputs.size() !=
  ///         outputs.size() * inputCount().
  void inferBatch(std::span<const double> crisp_inputs,
                  std::span<double> outputs, BatchScratch& scratch) const;

  /// As infer(), returning full diagnostics.
  [[nodiscard]] InferenceTrace inferTraced(
      std::span<const double> crisp_inputs) const;

 private:
  /// \throws std::invalid_argument unless \p n == inputCount().
  void checkArity(std::size_t n) const;

  /// Firing strength of each rule for the fuzzified inputs, into
  /// \p strengths (cleared first). The single implementation every
  /// inference path runs — one arithmetic, no drift.
  void fireInto(const std::vector<FuzzyVector>& fuzzified,
                std::vector<double>& strengths) const;

  /// Per-term aggregation of \p strengths into scratch.term_activation,
  /// then each active term's table row folded into the aggregated curve and
  /// the curve defuzzified — the shared back half of every inference.
  [[nodiscard]] double aggregateAndDefuzzify(
      const std::vector<double>& strengths, InferenceScratch& scratch) const;

  /// The samples of term \p t's row the aggregation must fold at
  /// activation \p a: support[t] whenever impl(a, 0) == 0 — then
  /// agg(mu, impl(a, 0)) == mu for every curve value mu, so the samples
  /// outside the support are no-ops — and the whole row otherwise (a NaN
  /// activation under min or product implication, or one above 1 under
  /// Lukasiewicz implication).
  [[nodiscard]] SampleRange foldRange(std::size_t t, double a) const noexcept;

  std::string name_;
  EngineConfig config_;
  std::vector<LinguisticVariable> inputs_;
  LinguisticVariable output_;
  RuleBase rules_;
  OutputTables tables_;
  /// Minted once per construction and kept by copies (their tables are
  /// identical): the key of a BatchScratch memo.
  std::uint64_t id_;
};

}  // namespace facs::fuzzy
