#include "fuzzy/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace facs::fuzzy {

namespace {

/// Monotonic id source for engine construction: a BatchScratch memo keyed
/// on the id can never be replayed against a different engine, even if an
/// engine object is destroyed and another constructed at the same address.
std::atomic<std::uint64_t> g_engine_counter{0};

/// The aggregation inner loop, specialized per operator pair so the
/// per-sample work is branch-light and autovectorizable. Each functor
/// mirrors apply() in norms.cpp exactly — same primitive ops, so the
/// specialized loops share every bit with the generic operator.
template <typename ImplOp, typename AggOp>
void accumulateRow(double activation, const double* term_mu, double* mu,
                   std::size_t n, ImplOp impl, AggOp agg) {
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = agg(mu[i], impl(activation, term_mu[i]));
  }
}

struct MinOp {
  double operator()(double a, double b) const { return std::min(a, b); }
};
struct ProdOp {
  double operator()(double a, double b) const { return a * b; }
};
struct LukOp {
  double operator()(double a, double b) const {
    return std::max(0.0, a + b - 1.0);
  }
};
struct MaxOp {
  double operator()(double a, double b) const { return std::max(a, b); }
};
struct ProborOp {
  double operator()(double a, double b) const { return a + b - a * b; }
};
struct BsumOp {
  double operator()(double a, double b) const { return std::min(1.0, a + b); }
};

template <typename ImplOp>
void accumulateWithAgg(SNorm agg, double activation, const double* term_mu,
                       double* mu, std::size_t n, ImplOp impl) {
  switch (agg) {
    case SNorm::Maximum:
      return accumulateRow(activation, term_mu, mu, n, impl, MaxOp{});
    case SNorm::AlgebraicSum:
      return accumulateRow(activation, term_mu, mu, n, impl, ProborOp{});
    case SNorm::BoundedSum:
      return accumulateRow(activation, term_mu, mu, n, impl, BsumOp{});
  }
  // Unknown enum value: fall back to the generic dispatcher so a future
  // norm cannot silently diverge from apply().
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = apply(agg, mu[i], impl(activation, term_mu[i]));
  }
}

void accumulateTerm(TNorm impl, SNorm agg, double activation,
                    const double* term_mu, double* mu, std::size_t n) {
  switch (impl) {
    case TNorm::Minimum:
      return accumulateWithAgg(agg, activation, term_mu, mu, n, MinOp{});
    case TNorm::AlgebraicProduct:
      return accumulateWithAgg(agg, activation, term_mu, mu, n, ProdOp{});
    case TNorm::BoundedDifference:
      return accumulateWithAgg(agg, activation, term_mu, mu, n, LukOp{});
  }
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = apply(agg, mu[i], apply(impl, activation, term_mu[i]));
  }
}

/// Fills \p row with \p mf's degree at the samples \p x where it is nonzero
/// and returns those samples. The walk starts at the first sample at or
/// above mf.peak() and runs outward, stopping each flank at its first
/// exactly-zero sample: by MembershipFunction's zero-tail contract every
/// sample beyond it is zero as well, so \p row — zero on entry — then holds
/// the full-grid tabulation without a degree() call past the support.
SampleRange tabulateSupport(const MembershipFunction& mf,
                            std::span<const double> x, std::span<double> row) {
  const auto start = static_cast<std::size_t>(
      std::lower_bound(x.begin(), x.end(), mf.peak()) - x.begin());
  std::size_t hi = start;
  for (; hi < x.size(); ++hi) {
    const double d = mf.degree(x[hi]);
    if (d == 0.0) break;
    row[hi] = d;
  }
  std::size_t lo = start;
  for (; lo > 0; --lo) {
    const double d = mf.degree(x[lo - 1]);
    if (d == 0.0) break;
    row[lo - 1] = d;
  }
  return {lo, hi};
}

/// The structural checks that need no rule resolution, run before the
/// engine's members take ownership of the spec's parts.
EngineSpec& checkShape(EngineSpec& spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("engine name must not be empty");
  }
  if (spec.config.resolution < 2 || spec.config.resolution > kMaxResolution) {
    throw std::invalid_argument("engine '" + spec.name +
                                "': resolution must be in [2, " +
                                std::to_string(kMaxResolution) + "]");
  }
  const std::string where = "engine '" + spec.name + "'";
  if (spec.inputs.empty()) {
    throw std::logic_error(where + " has no input variables");
  }
  for (const auto& v : spec.inputs) {
    if (v.termCount() == 0) {
      throw std::logic_error(where + ": input variable '" + v.name() +
                             "' has no terms");
    }
  }
  if (!spec.output) throw std::logic_error(where + " has no output variable");
  if (spec.output->termCount() == 0) {
    throw std::logic_error(where + ": output variable '" +
                           spec.output->name() + "' has no terms");
  }
  if (spec.rules.empty()) {
    throw std::logic_error(where + " has an empty rule base");
  }
  return spec;
}

}  // namespace

MamdaniEngine::MamdaniEngine(EngineSpec spec)
    : name_{std::move(checkShape(spec).name)},
      config_{spec.config},
      inputs_{std::move(spec.inputs)},
      output_{std::move(*spec.output)},
      id_{g_engine_counter.fetch_add(1, std::memory_order_relaxed) + 1} {
  for (std::size_t i = 0; i < spec.rules.size(); ++i) {
    const RuleSpec& r = spec.rules[i];
    try {
      rules_.add(inputs_, output_, r.antecedent, r.consequent, r.weight);
    } catch (const std::invalid_argument& e) {
      throw RuleError{i, "engine '" + name_ + "': rule " + std::to_string(i) +
                             ": " + e.what()};
    }
  }
  // Name resolution already rejected malformed rules; conflicts remain.
  // Uncovered combinations are allowed (sparse rule bases are legal); the
  // FACS controllers assert completeness separately in their tests.
  const RuleBaseReport report = rules_.validate(inputs_);
  if (!report.conflicts.empty()) {
    const auto [first, second] = report.conflicts.front();
    std::ostringstream os;
    os << "engine '" << name_ << "': rules " << first << " and " << second
       << " share an antecedent but disagree on the consequent";
    throw RuleError{second, os.str()};
  }

  // The defuzzification tables on the fixed sample grid. The grid formula
  // is exactly the sampling loop in defuzzify(): x = lo + step * i with
  // step = width / (resolution - 1) — a pure function of (universe,
  // resolution) — so table lookups reproduce sampling the aggregated curve
  // through the term objects bit for bit.
  const Interval u = output_.universe();
  const auto n = static_cast<std::size_t>(config_.resolution);
  tables_.x.resize(n);
  const double step = u.width() / (config_.resolution - 1);
  for (int i = 0; i < config_.resolution; ++i) {
    tables_.x[static_cast<std::size_t>(i)] = u.lo + step * i;
  }
  fillTrapezoidWeights(tables_.x, tables_.half_dx);
  tables_.term_mu.assign(output_.termCount() * n, 0.0);
  tables_.support.resize(output_.termCount());
  for (std::size_t t = 0; t < output_.termCount(); ++t) {
    tables_.support[t] = tabulateSupport(
        output_.term(t).mf(), tables_.x,
        std::span<double>{tables_.term_mu.data() + t * n, n});
  }
}

void MamdaniEngine::checkArity(std::size_t n) const {
  if (n != inputs_.size()) {
    std::ostringstream os;
    os << "engine '" << name_ << "' expects " << inputs_.size()
       << " inputs, got " << n;
    throw std::invalid_argument(os.str());
  }
}

void MamdaniEngine::fireInto(const std::vector<FuzzyVector>& fuzzified,
                             std::vector<double>& strengths) const {
  strengths.clear();
  strengths.reserve(rules_.size());
  for (const Rule& r : rules_.rules()) {
    double strength = 1.0;
    for (std::size_t v = 0; v < r.antecedent.size(); ++v) {
      if (r.antecedent[v] == kAnyTerm) continue;
      strength = apply(config_.conjunction, strength,
                       fuzzified[v][r.antecedent[v]]);
      if (strength == 0.0) break;
    }
    strengths.push_back(strength * r.weight);
  }
}

SampleRange MamdaniEngine::foldRange(std::size_t t, double a) const noexcept {
  if (apply(config_.implication, a, 0.0) == 0.0) return tables_.support[t];
  return {0, tables_.x.size()};
}

double MamdaniEngine::aggregateAndDefuzzify(
    const std::vector<double>& strengths, InferenceScratch& scratch) const {
  // Per-output-term activation level: the s-norm of the strengths of all
  // rules concluding in that term. Computing per-term activation first (and
  // folding each term's sample row once) keeps the aggregated-curve
  // evaluation O(#terms) instead of O(#rules).
  std::vector<double>& term_activation = scratch.term_activation;
  term_activation.assign(output_.termCount(), 0.0);
  for (std::size_t i = 0; i < strengths.size(); ++i) {
    if (strengths[i] <= 0.0) continue;
    const std::size_t t = rules_.rule(i).consequent;
    term_activation[t] =
        apply(config_.aggregation, term_activation[t], strengths[i]);
  }

  // The aggregated curve is zero outside the hull of the active terms'
  // fold ranges, so only that hull (and one sample on each side, which
  // the defuzzifier reads as the zero end of a boundary segment) is
  // cleared, folded and integrated.
  const std::size_t n = tables_.x.size();
  SampleRange hull{n, 0};
  for (std::size_t t = 0; t < term_activation.size(); ++t) {
    if (term_activation[t] <= 0.0) continue;
    const SampleRange r = foldRange(t, term_activation[t]);
    if (r.empty()) continue;
    hull.lo = std::min(hull.lo, r.lo);
    hull.hi = std::max(hull.hi, r.hi);
  }
  std::vector<double>& mu = scratch.curve_mu;
  mu.resize(n);
  if (hull.empty()) {
    // Nothing active on the grid: the all-zero curve, defuzzified whole.
    hull = {0, n};
  }
  const SampleRange cleared = readRange(hull, n);
  std::fill(mu.begin() + static_cast<std::ptrdiff_t>(cleared.lo),
            mu.begin() + static_cast<std::ptrdiff_t>(cleared.hi), 0.0);

  // Fold each active term's row over its range. Term-outer / sample-inner
  // is only a loop-nest order: per sample the same apply() chain runs in
  // ascending-term order, exactly as evaluating the curve point by point
  // through the term objects would, minus the no-op folds outside a range.
  for (std::size_t t = 0; t < term_activation.size(); ++t) {
    if (term_activation[t] <= 0.0) continue;
    const SampleRange r = foldRange(t, term_activation[t]);
    accumulateTerm(config_.implication, config_.aggregation,
                   term_activation[t], tables_.term_mu.data() + t * n + r.lo,
                   mu.data() + r.lo, r.hi - r.lo);
  }
  return defuzzifySampled(config_.defuzzifier, tables_.x, mu,
                          tables_.half_dx, hull, scratch.defuzz);
}

double MamdaniEngine::infer(std::span<const double> crisp_inputs) const {
  // Shared across engines on the same thread; every inference resizes the
  // buffers to its own shape, so the steady state allocates nothing.
  static thread_local InferenceScratch scratch;
  checkArity(crisp_inputs.size());
  scratch.fuzzified.resize(inputs_.size());
  for (std::size_t v = 0; v < inputs_.size(); ++v) {
    inputs_[v].fuzzifyInto(crisp_inputs[v], scratch.fuzzified[v]);
  }
  fireInto(scratch.fuzzified, scratch.strengths);
  return aggregateAndDefuzzify(scratch.strengths, scratch);
}

void MamdaniEngine::inferBatch(std::span<const double> crisp_inputs,
                               std::span<double> outputs,
                               BatchScratch& scratch) const {
  const std::size_t arity = inputs_.size();
  if (crisp_inputs.size() != outputs.size() * arity) {
    std::ostringstream os;
    os << "engine '" << name_ << "' batch expects " << outputs.size() << " x "
       << arity << " inputs, got " << crisp_inputs.size();
    throw std::invalid_argument(os.str());
  }

  // The memo (previous entry's crisp inputs, fuzzified degrees and output)
  // only transfers across calls when this scratch last served this engine
  // or a copy of it; any other history is dropped.
  if (scratch.engine_id != id_) scratch.warm = false;
  scratch.engine_id = id_;
  scratch.inference.fuzzified.resize(arity);
  scratch.last_inputs.resize(arity);

  for (std::size_t e = 0; e < outputs.size(); ++e) {
    const double* in = crisp_inputs.data() + e * arity;
    bool all_unchanged = scratch.warm;
    for (std::size_t v = 0; v < arity; ++v) {
      // Bitwise-equal crisp value => identical fuzzified degrees (fuzzify
      // is a pure function), so the previous entry's vector stands. NaN
      // compares unequal to itself and always recomputes.
      if (scratch.warm && in[v] == scratch.last_inputs[v]) continue;
      inputs_[v].fuzzifyInto(in[v], scratch.inference.fuzzified[v]);
      scratch.last_inputs[v] = in[v];
      all_unchanged = false;
    }
    if (all_unchanged) {
      // Every input repeated: the whole inference would re-run identical
      // arithmetic on identical operands. Reuse the previous output.
      outputs[e] = scratch.last_output;
      continue;
    }
    fireInto(scratch.inference.fuzzified, scratch.inference.strengths);
    outputs[e] =
        aggregateAndDefuzzify(scratch.inference.strengths, scratch.inference);
    scratch.last_output = outputs[e];
    scratch.warm = true;
  }
}

InferenceTrace MamdaniEngine::inferTraced(
    std::span<const double> crisp_inputs) const {
  checkArity(crisp_inputs.size());

  InferenceTrace trace;
  trace.inputs.reserve(inputs_.size());
  trace.fuzzified.reserve(inputs_.size());
  for (std::size_t v = 0; v < inputs_.size(); ++v) {
    const double clamped = inputs_[v].universe().clamp(crisp_inputs[v]);
    trace.inputs.push_back(clamped);
    trace.fuzzified.push_back(inputs_[v].fuzzify(clamped));
  }

  // Exactly infer()'s arithmetic — fireInto() and aggregateAndDefuzzify()
  // are the single implementation both share — plus the activation
  // bookkeeping only the trace wants.
  InferenceScratch scratch;
  fireInto(trace.fuzzified, scratch.strengths);
  for (std::size_t i = 0; i < scratch.strengths.size(); ++i) {
    if (scratch.strengths[i] > 0.0) {
      trace.activations.push_back({i, scratch.strengths[i]});
    }
  }

  trace.crisp_output = aggregateAndDefuzzify(scratch.strengths, scratch);
  trace.winning_output_term = output_.winningTerm(trace.crisp_output);
  return trace;
}

}  // namespace facs::fuzzy
