#include "fuzzy/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "curve_oracle.hpp"

namespace facs::fuzzy {
namespace {

/// The spec of a tiny two-input "tipper"-style controller used across
/// engine tests.
EngineSpec tipperSpec(EngineConfig config = {}) {
  EngineSpec spec;
  spec.name = "tipper";
  spec.config = config;

  LinguisticVariable service{"service", Interval{0.0, 10.0}};
  service.addTerm("poor", makeTriangle(0.0, 0.0, 5.0));
  service.addTerm("good", makeTriangle(5.0, 5.0, 5.0));
  service.addTerm("great", makeTriangle(10.0, 5.0, 0.0));

  LinguisticVariable food{"food", Interval{0.0, 10.0}};
  food.addTerm("bad", makeTrapezoid(0.0, 2.0, 0.0, 4.0));
  food.addTerm("tasty", makeTrapezoid(8.0, 10.0, 4.0, 0.0));

  LinguisticVariable tip{"tip", Interval{0.0, 30.0}};
  tip.addTerm("low", makeTriangle(5.0, 5.0, 5.0));
  tip.addTerm("medium", makeTriangle(15.0, 5.0, 5.0));
  tip.addTerm("high", makeTriangle(25.0, 5.0, 5.0));

  spec.inputs.push_back(std::move(service));
  spec.inputs.push_back(std::move(food));
  spec.output = std::move(tip);

  static const std::vector<RuleSpec> kRules{{{"poor", "*"}, "low"},
                                            {{"good", "*"}, "medium"},
                                            {{"great", "bad"}, "medium"},
                                            {{"great", "tasty"}, "high"}};
  spec.rules = kRules;
  return spec;
}

MamdaniEngine makeTipper(EngineConfig config = {}) {
  return MamdaniEngine{tipperSpec(config)};
}

/// A one-input engine: "lo" and "hi" map to themselves.
MamdaniEngine makeSingle() {
  LinguisticVariable v{"v", Interval{0.0, 1.0}};
  v.addTerm("lo", makeTriangle(0.0, 0.0, 1.0));
  v.addTerm("hi", makeTriangle(1.0, 1.0, 0.0));
  const std::vector<RuleSpec> rules{{{"lo"}, "lo"}, {{"hi"}, "hi"}};
  return MamdaniEngine{EngineSpec{"single", {}, {v}, v, rules}};
}

TEST(Engine, ConstructionValidation) {
  EngineSpec unnamed = tipperSpec();
  unnamed.name.clear();
  EXPECT_THROW(MamdaniEngine{std::move(unnamed)}, std::invalid_argument);

  for (int resolution : {1, kMaxResolution + 1}) {
    EngineConfig bad;
    bad.resolution = resolution;
    EXPECT_THROW(MamdaniEngine{tipperSpec(bad)}, std::invalid_argument)
        << resolution;
  }
  EngineConfig finest;
  finest.resolution = kMaxResolution;
  EXPECT_EQ(MamdaniEngine{tipperSpec(finest)}.config().resolution,
            kMaxResolution);

  // Rule names resolve at construction.
  for (const RuleSpec& bad : {RuleSpec{{"poor", "soggy"}, "low"},
                              RuleSpec{{"poor"}, "low"},
                              RuleSpec{{"poor", "bad"}, "low", 1.5}}) {
    EngineSpec spec = tipperSpec();
    std::vector<RuleSpec> rules{spec.rules.begin(), spec.rules.end()};
    rules.push_back(bad);
    spec.rules = rules;
    EXPECT_THROW(MamdaniEngine{std::move(spec)}, std::invalid_argument)
        << bad.consequent;
  }
}

TEST(Engine, ConstructionCatchesMissingPieces) {
  EngineSpec spec;
  spec.name = "e";
  EXPECT_THROW(MamdaniEngine{spec}, std::logic_error);  // no inputs

  LinguisticVariable v{"v", Interval{0.0, 1.0}};
  v.addTerm("t", makeTriangle(0.5, 0.5, 0.5));
  spec.inputs.push_back(v);
  EXPECT_THROW(MamdaniEngine{spec}, std::logic_error);  // no output

  spec.output = v;
  EXPECT_THROW(MamdaniEngine{spec}, std::logic_error);  // empty rule base
}

TEST(Engine, ConstructionCatchesConflicts) {
  LinguisticVariable v{"v", Interval{0.0, 1.0}};
  v.addTerm("lo", makeTriangle(0.0, 0.0, 1.0));
  v.addTerm("hi", makeTriangle(1.0, 1.0, 0.0));
  const std::vector<RuleSpec> rules{{{"lo"}, "lo"}, {{"lo"}, "hi"}};
  EXPECT_THROW((MamdaniEngine{EngineSpec{"e", {}, {v}, v, rules}}),
               std::logic_error);
}

TEST(Engine, InferArityMismatchThrows) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 1> one{5.0};
  EXPECT_THROW((void)e.infer(one), std::invalid_argument);
}

TEST(Engine, SingleDominantRuleCentersOnConsequent) {
  const MamdaniEngine e = makeTipper();
  // service=0 fires only "poor -> low" at full strength.
  const std::array<double, 2> in{0.0, 5.0};
  EXPECT_NEAR(e.infer(in), 5.0, 0.2);
}

TEST(Engine, GreatServiceTastyFoodGivesHighTip) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 2> in{10.0, 10.0};
  EXPECT_NEAR(e.infer(in), 25.0, 0.2);
}

TEST(Engine, InterpolatesBetweenRules) {
  const MamdaniEngine e = makeTipper();
  // service=7.5: good=0.5, great=0.5; food=10 -> medium and high both fire.
  const std::array<double, 2> in{7.5, 10.0};
  const double out = e.infer(in);
  EXPECT_GT(out, 15.0);
  EXPECT_LT(out, 25.0);
}

TEST(Engine, MonotoneInServiceQuality) {
  const MamdaniEngine e = makeTipper();
  double prev = -1.0;
  for (double s = 0.0; s <= 10.0; s += 0.5) {
    const std::array<double, 2> in{s, 10.0};
    const double out = e.infer(in);
    EXPECT_GE(out + 1e-9, prev) << "tip dropped at service=" << s;
    prev = out;
  }
}

TEST(Engine, ClampsInputsToUniverse) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 2> wild{42.0, -3.0};
  const std::array<double, 2> edge{10.0, 0.0};
  EXPECT_DOUBLE_EQ(e.infer(wild), e.infer(edge));
}

TEST(Engine, TraceReportsActivationsAndWinner) {
  const MamdaniEngine e = makeTipper();
  const std::array<double, 2> in{7.5, 10.0};
  const InferenceTrace trace = e.inferTraced(in);

  ASSERT_EQ(trace.fuzzified.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.fuzzified[0][1], 0.5);  // good
  EXPECT_DOUBLE_EQ(trace.fuzzified[0][2], 0.5);  // great

  // Rules 1 (good->medium) and 3 (great&tasty->high) fire.
  ASSERT_EQ(trace.activations.size(), 2u);
  EXPECT_EQ(trace.activations[0].rule_index, 1u);
  EXPECT_DOUBLE_EQ(trace.activations[0].firing_strength, 0.5);
  EXPECT_EQ(trace.activations[1].rule_index, 3u);
  EXPECT_DOUBLE_EQ(trace.activations[1].firing_strength, 0.5);

  EXPECT_EQ(e.output().term(trace.winning_output_term).name(),
            trace.crisp_output > 20.0 ? "high" : "medium");
}

TEST(Engine, RuleWeightScalesInfluence) {
  // The same rule base with the high rule at a tiny weight.
  EngineSpec spec = tipperSpec();
  std::vector<RuleSpec> rules{spec.rules.begin(), spec.rules.end()};
  rules.back().weight = 0.1;
  spec.rules = rules;
  const MamdaniEngine e{std::move(spec)};
  const MamdaniEngine base = makeTipper();

  const std::array<double, 2> in{7.5, 10.0};
  EXPECT_LT(e.infer(in), base.infer(in));
}

TEST(Engine, ProductOperatorsDifferButAgreeOnDominantRule) {
  EngineConfig prod;
  prod.conjunction = TNorm::AlgebraicProduct;
  prod.implication = TNorm::AlgebraicProduct;
  prod.aggregation = SNorm::AlgebraicSum;
  const MamdaniEngine scaled = makeTipper(prod);
  const MamdaniEngine clipped = makeTipper();

  const std::array<double, 2> dominant{0.0, 5.0};
  EXPECT_NEAR(scaled.infer(dominant), clipped.infer(dominant), 0.5);

  const std::array<double, 2> mixed{6.0, 7.0};
  // Different operator families genuinely differ on mixed activations.
  EXPECT_NE(scaled.infer(mixed), clipped.infer(mixed));
}

TEST(Engine, SpecDefuzzifierSelectsMethod) {
  // Two engines from specs that differ only in the defuzzifier.
  EngineConfig lom_cfg;
  lom_cfg.defuzzifier = Defuzzifier::LargestOfMax;
  const MamdaniEngine centroid = makeTipper();
  const MamdaniEngine lom = makeTipper(lom_cfg);

  const std::array<double, 2> in{7.5, 10.0};
  // LOM rides the rightmost maximizing plateau.
  EXPECT_GT(lom.infer(in), centroid.infer(in));
}

TEST(Engine, OutputAlwaysWithinUniverse) {
  const MamdaniEngine e = makeTipper();
  for (double s = 0.0; s <= 10.0; s += 1.0) {
    for (double f = 0.0; f <= 10.0; f += 1.0) {
      const std::array<double, 2> in{s, f};
      const double out = e.infer(in);
      EXPECT_GE(out, 0.0);
      EXPECT_LE(out, 30.0);
    }
  }
}

TEST(Engine, ScratchInferenceIsBitIdenticalToTracedPath) {
  const MamdaniEngine e = makeTipper();
  for (double s = 0.0; s <= 10.0; s += 0.5) {
    for (double f = 0.0; f <= 10.0; f += 0.5) {
      const std::array<double, 2> in{s, f};
      const double traced = e.inferTraced(in).crisp_output;
      // Exact equality on purpose: infer() on its per-thread scratch must
      // run the same arithmetic in the same order, or batched and
      // unbatched consumers would diverge.
      EXPECT_EQ(e.infer(in), traced) << "s=" << s << " f=" << f;
      // A warm (dirty) scratch must not leak state into the next call.
      EXPECT_EQ(e.infer(in), traced) << "s=" << s << " f=" << f;
    }
  }
}

TEST(Engine, OneScratchServesEnginesOfDifferentShape) {
  const MamdaniEngine tipper = makeTipper();
  const MamdaniEngine single = makeSingle();

  const std::array<double, 2> two{9.0, 9.0};
  const std::array<double, 1> one{0.25};
  const double a = tipper.infer(two);
  const double b = single.infer(one);
  // Interleave the shapes on the one per-thread scratch: it resizes per
  // call, never bleeds.
  EXPECT_EQ(tipper.infer(two), a);
  EXPECT_EQ(single.infer(one), b);
  EXPECT_EQ(tipper.inferTraced(two).crisp_output, a);
  EXPECT_EQ(single.inferTraced(one).crisp_output, b);
}

TEST(Engine, TablesMatchCurveOracleBitExactly) {
  // The engine folds precomputed sample-grid rows; the oracle evaluates the
  // aggregated curve through the term objects. The tables must be a pure
  // representation change: same grid, same apply() order, same bits.
  const MamdaniEngine e = makeTipper();
  for (double s = 0.0; s <= 10.0; s += 0.25) {
    for (double f : {0.0, 1.5, 3.0, 6.5, 10.0}) {
      const std::array<double, 2> in{s, f};
      EXPECT_EQ(e.infer(in), curveOracle(e, in)) << "s=" << s << " f=" << f;
    }
  }
}

TEST(Engine, InferBatchMatchesScalarBitExactly) {
  const MamdaniEngine e = makeTipper();

  std::vector<double> inputs;
  for (double s = 0.0; s <= 10.0; s += 0.5) {
    for (double f = 0.0; f <= 10.0; f += 1.0) {
      inputs.push_back(s);
      inputs.push_back(f);
    }
  }
  const std::size_t entries = inputs.size() / 2;
  std::vector<double> outputs(entries);
  BatchScratch scratch;
  e.inferBatch(inputs, outputs, scratch);
  for (std::size_t i = 0; i < entries; ++i) {
    const std::array<double, 2> in{inputs[2 * i], inputs[2 * i + 1]};
    EXPECT_EQ(outputs[i], e.infer(in)) << "entry " << i;
  }
}

TEST(Engine, InferBatchMemoHandlesRepeatsAndMidBatchChanges) {
  const MamdaniEngine e = makeTipper();

  // Entries repeat the shared input, repeat fully, then change it mid-batch
  // — the memo must reuse only what is bitwise unchanged.
  const std::vector<double> inputs{
      3.0, 4.0,   // cold entry
      3.0, 4.0,   // full repeat: reuses the previous output outright
      3.0, 7.0,   // first input repeats, second changes
      5.0, 7.0,   // first changes, second repeats
      5.0, 7.0,   // full repeat again
      2.0, 1.0};  // both change
  std::vector<double> outputs(inputs.size() / 2);
  BatchScratch scratch;
  e.inferBatch(inputs, outputs, scratch);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const std::array<double, 2> in{inputs[2 * i], inputs[2 * i + 1]};
    EXPECT_EQ(outputs[i], e.infer(in)) << "entry " << i;
  }

  // The memo spans calls: a second batch starting on the last entry's
  // inputs still matches the scalar path.
  const std::vector<double> next{2.0, 1.0, 2.0, 6.0};
  std::vector<double> next_out(2);
  e.inferBatch(next, next_out, scratch);
  EXPECT_EQ(next_out[0], e.infer(std::array<double, 2>{2.0, 1.0}));
  EXPECT_EQ(next_out[1], e.infer(std::array<double, 2>{2.0, 6.0}));
}

TEST(Engine, InferBatchChecksArity) {
  const MamdaniEngine e = makeTipper();
  BatchScratch scratch;
  const std::vector<double> three{1.0, 2.0, 3.0};  // not a multiple of 2
  std::vector<double> one(1);
  EXPECT_THROW(e.inferBatch(three, one, scratch), std::invalid_argument);
  std::vector<double> two(2);  // 3 inputs for 2 entries of arity 2
  EXPECT_THROW(e.inferBatch(three, two, scratch), std::invalid_argument);
}

TEST(Engine, BatchScratchRekeysAcrossEnginesAndCopies) {
  const MamdaniEngine tipper = makeTipper();
  const MamdaniEngine single = makeSingle();

  // One scratch ping-pongs between engines of different arity: the memo is
  // keyed to the engine id, so a stale memo from the other engine must
  // never be consulted.
  BatchScratch scratch;
  const std::vector<double> two{3.0, 4.0};
  const std::vector<double> one{0.25};
  std::vector<double> out(1);
  for (int round = 0; round < 3; ++round) {
    tipper.inferBatch(two, out, scratch);
    EXPECT_EQ(out[0], tipper.infer(two));
    single.inferBatch(one, out, scratch);
    EXPECT_EQ(out[0], single.infer(one));
  }

  // A copy has identical tables and keeps the id, so it reuses the memo
  // the original left behind.
  tipper.inferBatch(two, out, scratch);
  const std::uint64_t tipper_id = scratch.engine_id;
  const MamdaniEngine copy{tipper};
  copy.inferBatch(two, out, scratch);
  EXPECT_EQ(scratch.engine_id, tipper_id);
  EXPECT_EQ(out[0], copy.infer(two));

  // Copy-assigning a different engine of the same arity into the object
  // changes its id: the memo is dropped, not replayed against the new
  // rule base (the first entry repeats the memo's inputs on purpose).
  EngineConfig prod;
  prod.implication = TNorm::AlgebraicProduct;
  const MamdaniEngine other = makeTipper(prod);
  MamdaniEngine reused = makeTipper();
  reused.inferBatch(two, out, scratch);
  const double before = out[0];
  reused = other;
  const std::vector<double> batch{3.0, 4.0, 6.0, 7.0};
  std::vector<double> outs(2);
  reused.inferBatch(batch, outs, scratch);
  EXPECT_NE(outs[0], before);
  EXPECT_EQ(outs[0], reused.infer(two));
  EXPECT_EQ(outs[1], reused.infer(std::array<double, 2>{6.0, 7.0}));
}

}  // namespace
}  // namespace facs::fuzzy
