/// \file micro_fuzzy.cpp
/// Microbenchmarks of the fuzzy substrate: per-inference latency of FLC1,
/// FLC2 and the full FACS cascade — the numbers that decide whether the
/// controller is viable on a base station's admission path ("suitable for
/// real-time operation", paper Section 3) — and the cost of building the
/// engines.

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "core/facs.hpp"
#include "fuzzy/fdl.hpp"

namespace {

using namespace facs;

/// FACS controller by registry spec, downcast for the FACS-specific
/// `evaluate()` benchmarks (only the registry constructs controllers).
std::unique_ptr<core::FacsController> facsFromRegistry(
    const std::string& spec) {
  const cellular::HexNetwork net{0};
  std::unique_ptr<cellular::AdmissionController> controller =
      cellular::PolicyRuntime::defaultRuntime().makeController(spec, net);
  auto* typed = dynamic_cast<core::FacsController*>(controller.get());
  if (typed == nullptr) throw std::logic_error("spec is not a FACS policy");
  controller.release();
  return std::unique_ptr<core::FacsController>{typed};
}

void BM_Flc1Inference(benchmark::State& state) {
  const fuzzy::MamdaniEngine flc1 = core::buildFlc1();
  std::array<double, 3> in{60.0, 20.0, 5.0};
  double x = 0.0;
  for (auto _ : state) {
    in[1] = x;  // vary the angle so no caching layer could cheat
    x = x < 180.0 ? x + 1.0 : -180.0;
    benchmark::DoNotOptimize(flc1.infer(in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Flc1Inference);

void BM_Flc2Inference(benchmark::State& state) {
  const fuzzy::MamdaniEngine flc2 = core::buildFlc2();
  std::array<double, 3> in{0.5, 5.0, 20.0};
  double cs = 0.0;
  for (auto _ : state) {
    in[2] = cs;
    cs = cs < 40.0 ? cs + 0.5 : 0.0;
    benchmark::DoNotOptimize(flc2.infer(in));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Flc2Inference);

/// The batch kernel on a commit-window-shaped input: Cv and R vary per
/// entry while the shared Cs input holds for runs of entries, so the
/// fuzzification memo gets the hit pattern the serialized commit phase
/// produces. Compare against BM_Flc2Inference for the per-decision win.
void BM_Flc2InferBatch(benchmark::State& state) {
  const fuzzy::MamdaniEngine flc2 = core::buildFlc2();
  const std::size_t entries = static_cast<std::size_t>(state.range(0));
  std::vector<double> inputs;
  inputs.reserve(entries * 3);
  double cv = 0.1;
  double r = 1.0;
  for (std::size_t i = 0; i < entries; ++i) {
    inputs.push_back(cv);
    inputs.push_back(r);
    inputs.push_back(17.0 + static_cast<double>(i / 8));  // Cs per window
    cv = cv < 0.9 ? cv + 0.07 : 0.1;
    r = r < 10.0 ? r + 1.0 : 1.0;
  }
  std::vector<double> outputs(entries);
  fuzzy::BatchScratch scratch;
  for (auto _ : state) {
    flc2.inferBatch(inputs, outputs, scratch);
    benchmark::DoNotOptimize(outputs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries));
}
BENCHMARK(BM_Flc2InferBatch)->Arg(16)->Arg(256);

void BM_FacsEvaluate(benchmark::State& state) {
  const auto facs = facsFromRegistry("facs");
  cellular::UserSnapshot user;
  user.speed_kmh = 45.0;
  user.angle_deg = 20.0;
  user.distance_km = 4.0;
  double cs = 0.0;
  for (auto _ : state) {
    cs = cs < 40.0 ? cs + 1.0 : 0.0;
    benchmark::DoNotOptimize(facs->evaluate(user, 5.0, cs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsEvaluate);

/// Defuzzification resolution is the main latency knob: sweep it.
void BM_FacsEvaluateResolution(benchmark::State& state) {
  const auto facs = facsFromRegistry(
      "facs:res=" + std::to_string(state.range(0)));
  cellular::UserSnapshot user;
  user.speed_kmh = 45.0;
  user.angle_deg = 20.0;
  user.distance_km = 4.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(facs->evaluate(user, 5.0, 17.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsEvaluateResolution)->Arg(101)->Arg(251)->Arg(1001)->Arg(4001);

/// Engine set-up: what a FACS policy pays once per parsed spec.
void BM_BuildFlc1(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::buildFlc1());
  }
}
BENCHMARK(BM_BuildFlc1);

void BM_BuildFlc2(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::buildFlc2());
  }
}
BENCHMARK(BM_BuildFlc2);

/// Spec -> factory -> one controller: the full set-up of one FACS run
/// (the factory builds both engines; its controllers share them).
void BM_FacsFactory(benchmark::State& state) {
  const cellular::PolicyRuntime& runtime =
      cellular::PolicyRuntime::defaultRuntime();
  const cellular::HexNetwork net{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.makeFactory("facs")(net));
  }
}
BENCHMARK(BM_FacsFactory);

void BM_FdlParseFlc1(benchmark::State& state) {
  const std::string doc = fuzzy::toFdl(core::buildFlc1());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzy::parseFdl(doc));
  }
}
BENCHMARK(BM_FdlParseFlc1);

void BM_MembershipDegree(benchmark::State& state) {
  const fuzzy::Triangular tri{30.0, 15.0, 30.0};
  double x = 0.0;
  for (auto _ : state) {
    x = x < 70.0 ? x + 0.1 : 0.0;
    benchmark::DoNotOptimize(tri.degree(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MembershipDegree);

}  // namespace

BENCHMARK_MAIN();
