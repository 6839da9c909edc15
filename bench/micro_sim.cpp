/// \file micro_sim.cpp
/// Microbenchmarks of the simulation substrate: event-queue throughput,
/// whole-run latency per policy, the per-decision cost of the opt-in
/// rationale API, SCC's decision cost as the number of tracked shadows
/// grows, and the cell lookup behind every mobility step. All controllers
/// come from the policy registry.

#include <benchmark/benchmark.h>

#include "core/facs.hpp"
#include "figure_common.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace facs;
using bench::policy;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue<int> q;
  sim::Rng rng = sim::makeRng(1);
  double clock = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.push(clock + sim::sampleUniform(rng, 0.0, 100.0), i);
    }
    for (int i = 0; i < 64; ++i) {
      auto e = q.pop();
      clock = e->time_s;
      benchmark::DoNotOptimize(e);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventQueuePushPop);

/// The metro local phase: each window pops ~5k mobility ticks sharing one
/// instant and reschedules each one period later. One tick in 100 retires
/// instead; the barrier between windows schedules its end at a distinct
/// time, and for every end popped starts a new tick at the window edge, so
/// the population stays at 5k. Items are pops.
void BM_EventQueueTicks(benchmark::State& state) {
  constexpr int kCalls = 5000;
  constexpr double kPeriod = 5.0;
  sim::EventQueue<int> q;  // payload >= 0: a tick; -1: an end
  sim::Rng rng = sim::makeRng(2);
  std::vector<double> offsets(4096);
  for (double& o : offsets) o = sim::sampleUniform(rng, 0.0, 40.0 * kPeriod);
  std::size_t next_offset = 0;
  for (int i = 0; i < kCalls; ++i) q.push(0.0, i);
  double window_end = kPeriod;
  std::int64_t pops = 0;
  for (auto _ : state) {
    int retiring = 0;
    int ended = 0;
    while (const auto e = q.popBefore(window_end)) {
      ++pops;
      if (e->payload < 0) {
        ++ended;
      } else if (pops % 100 == 0) {
        ++retiring;
      } else {
        q.push(e->time_s + kPeriod, e->payload);
      }
    }
    for (int i = 0; i < retiring; ++i) {
      q.push(window_end + offsets[next_offset++ % offsets.size()], -1);
    }
    for (int i = 0; i < ended; ++i) q.push(window_end, i);
    window_end += kPeriod;
  }
  state.SetItemsProcessed(pops);
}
BENCHMARK(BM_EventQueueTicks);

/// One call's stream as prepareCall() gets it: seeding plus the first draw,
/// which pays the first twist.
void BM_MakeRng(benchmark::State& state) {
  std::uint64_t stream = 0;
  for (auto _ : state) {
    sim::Rng rng = sim::makeRng(7, stream++);
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakeRng);

sim::SimulationConfig benchConfig(int requests) {
  sim::SimulationConfig cfg;
  cfg.total_requests = requests;
  cfg.seed = 5;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  return cfg;
}

void BM_SimulationRunFacs(benchmark::State& state) {
  const auto cfg = benchConfig(static_cast<int>(state.range(0)));
  const auto factory = policy("facs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_SimulationRunFacs)->Arg(25)->Arg(100);

void BM_SimulationRunCs(benchmark::State& state) {
  const auto cfg = benchConfig(static_cast<int>(state.range(0)));
  const auto factory = policy("cs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_SimulationRunCs)->Arg(25)->Arg(100);

void BM_SimulationWithGpsTracking(benchmark::State& state) {
  sim::SimulationConfig cfg = benchConfig(50);
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_error_m = 10.0;
  const auto factory = policy("facs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
}
BENCHMARK(BM_SimulationWithGpsTracking);

/// The decision hot path with rationale off (the simulator's mode: no
/// string is built) vs on (the dashboard/debug mode). The gap is the cost
/// the opt-in API removed from every simulated decision.
template <bool kExplain>
void BM_DecideRationale(benchmark::State& state, const std::string& spec) {
  const cellular::HexNetwork net{0};
  const auto controller = policy(spec)(net);
  cellular::CallRequest request;
  request.call = 1;
  request.service = cellular::ServiceClass::Voice;
  request.demand_bu = 5;
  request.snapshot = {45.0, 20.0, 4.0, {4.0, 0.0}};
  request.target_cell = 0;
  const cellular::AdmissionContext ctx{net.station(0), 0.0, kExplain};
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller->decide(request, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_FacsDecideNoExplain(benchmark::State& state) {
  BM_DecideRationale<false>(state, "facs");
}
BENCHMARK(BM_FacsDecideNoExplain);
void BM_FacsDecideExplain(benchmark::State& state) {
  BM_DecideRationale<true>(state, "facs");
}
BENCHMARK(BM_FacsDecideExplain);
void BM_CsDecideNoExplain(benchmark::State& state) {
  BM_DecideRationale<false>(state, "cs");
}
BENCHMARK(BM_CsDecideNoExplain);
void BM_CsDecideExplain(benchmark::State& state) {
  BM_DecideRationale<true>(state, "cs");
}
BENCHMARK(BM_CsDecideExplain);
void BM_GuardDecideNoExplain(benchmark::State& state) {
  BM_DecideRationale<false>(state, "guard:8");
}
BENCHMARK(BM_GuardDecideNoExplain);
void BM_GuardDecideExplain(benchmark::State& state) {
  BM_DecideRationale<true>(state, "guard:8");
}
BENCHMARK(BM_GuardDecideExplain);

/// The split FACS pipeline, stage by stage. Precompute (FLC1 only) is what
/// the sharded engine hoists into the parallel prepare phase; decide with a
/// precomputed CV is what remains on the serialized commit path (FLC2
/// only). Their sum should approximate the inline BM_FacsDecideNoExplain —
/// the win is WHERE the FLC1 share runs, not how much total work exists.
void BM_FacsPrecompute(benchmark::State& state) {
  const cellular::HexNetwork net{0};
  const auto controller = policy("facs")(net);
  const cellular::UserSnapshot snapshot{45.0, 20.0, 4.0, {4.0, 0.0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller->precompute(snapshot));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsPrecompute);

void BM_FacsDecidePrecomputedCv(benchmark::State& state) {
  const cellular::HexNetwork net{0};
  const auto controller = policy("facs")(net);
  cellular::CallRequest request;
  request.call = 1;
  request.service = cellular::ServiceClass::Voice;
  request.demand_bu = 5;
  request.snapshot = {45.0, 20.0, 4.0, {4.0, 0.0}};
  request.target_cell = 0;
  cellular::AdmissionContext ctx{net.station(0), 0.0};
  ctx.predicted = controller->precompute(request.snapshot);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller->decide(request, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FacsDecidePrecomputedCv);

/// Per-tick-window FLC2 batching: one evaluateBatch over N pending
/// decisions versus N virtual decide() calls (the commit phase's two ways
/// of clearing a window's admissions).
void BM_FacsEvaluateBatch(benchmark::State& state) {
  const cellular::HexNetwork net{0};
  const auto controller = policy("facs")(net);
  auto* facs = dynamic_cast<core::FacsController*>(controller.get());
  const int n = static_cast<int>(state.range(0));
  std::vector<core::PendingDecision> batch(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    batch[static_cast<std::size_t>(i)].cv = 0.1 + 0.8 * i / n;
    batch[static_cast<std::size_t>(i)].demand_bu = 5.0;
    batch[static_cast<std::size_t>(i)].occupied_bu =
        static_cast<double>(i % 40);
  }
  for (auto _ : state) {
    facs->evaluateBatch(batch);
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FacsEvaluateBatch)->Arg(16)->Arg(256);

/// SCC decision cost must stay flat as tracked shadows grow: decide()
/// reads the incremental per-cell demand accumulators (updated on call
/// arrival/departure/handoff) instead of re-integrating every shadow.
void BM_SccDecideVsTrackedCalls(benchmark::State& state) {
  const cellular::HexNetwork net{2};
  const auto scc = policy("scc")(net);
  const int tracked = static_cast<int>(state.range(0));
  for (int i = 0; i < tracked; ++i) {
    cellular::CallRequest r;
    r.call = static_cast<cellular::CallId>(i + 1);
    r.service = cellular::ServiceClass::Voice;
    r.demand_bu = 5;
    r.snapshot.position = {static_cast<double>(i % 10), 0.0};
    r.snapshot.speed_kmh = 30.0;
    r.target_cell = 0;
    scc->onAdmitted(r, {net.station(0), 0.0});
  }
  cellular::CallRequest probe;
  probe.call = 100000;
  probe.service = cellular::ServiceClass::Video;
  probe.demand_bu = 10;
  probe.snapshot.position = {1.0, 1.0};
  probe.target_cell = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scc->decide(probe, {net.station(0), 0.0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SccDecideVsTrackedCalls)->Arg(8)->Arg(64)->Arg(256)->Arg(2048);

/// HexNetwork::cellAt on points inside the disk at 19 / 217 / 1,027 cells
/// (rings 2 / 8 / 18, the metro cell radius). The axial table makes the
/// per-call cost flat in the network size.
void BM_CellAt(benchmark::State& state) {
  const cellular::HexNetwork net{static_cast<int>(state.range(0)), 1.5};
  sim::Rng rng = sim::makeRng(3);
  // Offsets of up to 0.6 radii per axis stay inside the inscribed circle,
  // so every point belongs to the cell it was drawn around.
  const double jitter = 0.6 * net.cellRadiusKm();
  std::vector<cellular::Vec2> points(4096);
  for (cellular::Vec2& p : points) {
    const auto cell = static_cast<cellular::CellId>(sim::sampleUniform(
        rng, 0.0, static_cast<double>(net.cellCount()) - 0.5));
    p = net.cell(cell).center +
        cellular::Vec2{sim::sampleUniform(rng, -jitter, jitter),
                       sim::sampleUniform(rng, -jitter, jitter)};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.cellAt(points[i]));
    i = (i + 1) % points.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellAt)->Arg(2)->Arg(8)->Arg(18);

/// Whole sharded runs on a multi-cell scenario (the wall-clock scaling
/// study lives in multi_cell_scaling; this pins the per-event overhead of
/// the barrier machinery at shards=1 vs a small fan-out).
void BM_ShardedRunMultiCell(benchmark::State& state) {
  sim::SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 2.0;
  cfg.total_requests = 200;
  cfg.arrival_window_s = 400.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 5;
  cfg.scenario.tracking_window_s = 0.0;
  cfg.scenario.gps_error_m.reset();
  cfg.scenario.speed_min_kmh = 40.0;
  cfg.scenario.speed_max_kmh = 100.0;
  cfg.scenario.distance_max_km = 2.0;
  cfg.shards = static_cast<int>(state.range(0));
  const auto factory = policy("facs");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::runSimulation(cfg, factory));
  }
  state.SetItemsProcessed(state.iterations() * cfg.total_requests);
}
BENCHMARK(BM_ShardedRunMultiCell)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
