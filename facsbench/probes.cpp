#include "probes.hpp"

#include <algorithm>
#include <random>

#include "cellular/basestation.hpp"
#include "cellular/network.hpp"
#include "common.hpp"
#include "core/facs.hpp"
#include "mobility/gps.hpp"
#include "mobility/model.hpp"
#include "serve/service.hpp"
#include "sim/rng.hpp"
#include "sim/workload.hpp"

namespace facsbench {

namespace cel = facs::cellular;
namespace sim = facs::sim;
namespace mob = facs::mobility;

namespace {

/// Every probe's result is stored here, so the timed work is observable
/// and cannot be optimized away.
volatile double g_sink = 0.0;

/// Median ns per call over nine timed batches, after one warm-up batch.
/// \p batch runs \p calls calls and returns a value derived from them.
template <class Batch>
double nsPerCall(std::size_t calls, Batch&& batch) {
  g_sink = batch();
  std::vector<double> samples;
  for (int b = 0; b < 9; ++b) {
    const std::int64_t t0 = nowNs();
    const double v = batch();
    const std::int64_t t1 = nowNs();
    g_sink = v;
    samples.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(calls));
  }
  return median(samples);
}

constexpr std::size_t kInputs = 4096;

struct Walked {
  mob::MotionState start;  ///< The plan's initial state.
  cel::UserSnapshot snapshot;
  cel::BandwidthUnits demand_bu = 1;
  std::optional<cel::CellId> cell;  ///< Where the walk ended, if covered.
};

/// One GPS tracking walk exactly as the engine's call preparation runs
/// it, reusing one scratch estimator the way each engine shard does.
class Walker {
 public:
  Walker(const sim::ScenarioParams& scenario, const cel::HexNetwork& network,
         int fixes)
      : network_{network},
        sampler_{scenario.gps_error_m.value_or(0.0)},
        model_{scenario.turn},
        estimator_{static_cast<std::size_t>(fixes)},
        period_s_{scenario.gps_fix_period_s},
        fixes_{fixes} {}

  /// Walks \p state through the tracking window; \p ended is the cell the
  /// walk ends in, if it stays covered.
  cel::UserSnapshot walk(mob::MotionState& state, cel::CellId target,
                         sim::Rng& rng, std::optional<cel::CellId>& ended) {
    estimator_.reset();
    estimator_.addFix(sampler_.sample(0.0, state.position_km, rng));
    for (int i = 1; i < fixes_; ++i) {
      model_.step(state, period_s_, rng);
      estimator_.addFix(sampler_.sample(i * period_s_, state.position_km, rng));
    }
    ended = network_.cellAt(state.position_km);
    cel::UserSnapshot snapshot =
        estimator_.snapshot(network_.cell(ended.value_or(target)).center);
    snapshot.position = state.position_km;
    return snapshot;
  }

 private:
  const cel::HexNetwork& network_;
  mob::GpsSampler sampler_;
  mob::SpeedDependentTurn model_;
  mob::GpsEstimator estimator_;
  double period_s_;
  int fixes_;
};

}  // namespace

std::vector<ProbeResult> runProbes(const Workload& workload,
                                   std::uint64_t seed) {
  const Inputs& in = workload.inputs();
  const sim::ScenarioParams& scenario = in.config.scenario;
  const cel::HexNetwork network{in.config.rings, in.config.cell_radius_km,
                                in.config.capacity_bu};
  const int fixes = std::max(2, workload.fixCount());
  Walker walker{scenario, network, fixes};

  // Request plans on uniformly drawn cells, and their tracking walks.
  sim::Rng rng = sim::makeRng(seed, 0x9b0be5);
  std::uniform_int_distribution<std::size_t> pick{0, network.cellCount() - 1};
  std::vector<Walked> walked;
  walked.reserve(kInputs);
  for (std::size_t i = 0; i < kInputs; ++i) {
    const auto cell = static_cast<cel::CellId>(pick(rng));
    const sim::RequestPlan plan =
        sim::drawRequest(scenario, network.cell(cell).center, cell, rng);
    Walked w;
    w.start = plan.initial;
    w.demand_bu = cel::profileFor(plan.service).demand_bu;
    mob::MotionState state = plan.initial;
    w.snapshot = walker.walk(state, cell, rng, w.cell);
    walked.push_back(w);
  }
  std::vector<cel::Vec2> inside;  // walk ends inside the disk
  for (const Walked& w : walked) {
    if (w.cell) inside.push_back(w.snapshot.position);
  }

  std::vector<ProbeResult> out;

  out.push_back({"rng.make_ns", nsPerCall(kInputs, [&] {
                   // Seeding plus the first draw, as each prepared call does.
                   double acc = 0.0;
                   for (std::size_t i = 0; i < kInputs; ++i) {
                     sim::Rng r = sim::makeRng(seed, i);
                     acc += static_cast<double>(r() >> 11);
                   }
                   return acc;
                 })});

  sim::Rng draw = sim::makeRng(seed, 1);
  out.push_back({"rng.normal_ns", nsPerCall(kInputs, [&] {
                   double acc = 0.0;
                   for (std::size_t i = 0; i < kInputs; ++i) {
                     acc += sim::sampleNormal(draw, 0.0, 1.0);
                   }
                   return acc;
                 })});

  // Local mobility steps use the engine's mobility period; without
  // handoffs the only steps are the tracking walk's, one fix period each.
  const double step_s = in.config.enable_handoffs ? in.config.mobility_update_s
                                                  : scenario.gps_fix_period_s;
  std::vector<mob::MotionState> states;
  for (const Walked& w : walked) states.push_back(w.start);
  mob::SpeedDependentTurn model{scenario.turn};
  out.push_back({"mobility.step_ns", nsPerCall(kInputs, [&] {
                   double acc = 0.0;
                   for (mob::MotionState& s : states) {
                     model.step(s, step_s, draw);
                     acc += s.position_km.x;
                   }
                   return acc;
                 })});

  out.push_back({"gps.track_ns", nsPerCall(kInputs, [&] {
                   double acc = 0.0;
                   std::optional<cel::CellId> ended;
                   for (const Walked& w : walked) {
                     mob::MotionState s = w.start;
                     acc += walker.walk(s, 0, draw, ended).speed_kmh;
                   }
                   return acc;
                 })});

  out.push_back({"network.cell_at_ns", nsPerCall(inside.size(), [&] {
                   double acc = 0.0;
                   for (const cel::Vec2 p : inside) {
                     acc += static_cast<double>(network.cellAt(p).value_or(0));
                   }
                   return acc;
                 })});

  // The fuzzy layer through FACS's public entry points, on the walks'
  // snapshots and uniformly drawn occupancies.
  const facs::core::FacsController facs;
  std::vector<facs::core::PendingDecision> pending(kInputs);
  std::uniform_int_distribution<int> occupancy{0, in.config.capacity_bu};
  for (std::size_t i = 0; i < kInputs; ++i) {
    pending[i].cv = facs.predictCv(walked[i].snapshot);
    pending[i].demand_bu = walked[i].demand_bu;
    pending[i].occupied_bu = occupancy(rng);
  }
  out.push_back({"fuzzy.flc1_ns", nsPerCall(kInputs, [&] {
                   double acc = 0.0;
                   for (const Walked& w : walked) {
                     acc += facs.predictCv(w.snapshot);
                   }
                   return acc;
                 })});
  out.push_back({"fuzzy.flc2_ns", nsPerCall(kInputs, [&] {
                   double acc = 0.0;
                   for (const auto& p : pending) {
                     acc += facs.evaluate(p.cv, p.demand_bu, p.occupied_bu).ar;
                   }
                   return acc;
                 })});
  out.push_back({"fuzzy.batch_ns", nsPerCall(kInputs, [&] {
                   facs.evaluateBatch(pending);
                   double acc = 0.0;
                   for (const auto& p : pending) acc += p.eval.ar;
                   return acc;
                 })});

  // A ledger holding 32 live calls: admit one, release the oldest.
  cel::BaseStation station{0, 1 << 20};
  constexpr cel::CallId kLive = 32;
  for (cel::CallId c = 0; c < kLive; ++c) station.allocate(c, 1, false);
  cel::CallId next = kLive;
  out.push_back({"ledger.alloc_release_ns", nsPerCall(kInputs, [&] {
                   for (std::size_t i = 0; i < kInputs; ++i, ++next) {
                     station.allocate(next, walked[i].demand_bu, i % 2 == 0);
                     station.release(next - kLive);
                   }
                   return static_cast<double>(station.occupiedBu());
                 })});

  // One JSONL window record, formatted the way serveSimulation does.
  sim::WindowSnapshot window;
  window.cumulative.new_requests = 50000;
  window.cumulative.engine_events = 1000000;
  window.cumulative.busy_bu_seconds = 123456.789;
  window.cumulative.observed_span_s = 1800.0;
  window.cumulative.total_capacity_bu = in.config.capacity_bu;
  window.cumulative.lane_events.assign(
      static_cast<std::size_t>(in.config.commit_groups), 250000);
  const sim::Metrics previous;
  constexpr std::size_t kRecords = 256;
  out.push_back({"serve.record_ns", nsPerCall(kRecords, [&] {
                   double acc = 0.0;
                   for (std::size_t i = 0; i < kRecords; ++i) {
                     window.index = i;
                     acc += static_cast<double>(
                         facs::serve::windowJsonLine(window, previous).size());
                   }
                   return acc;
                 })});
  return out;
}

}  // namespace facsbench
