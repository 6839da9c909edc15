/// \file bench_baseline.cpp
/// Regenerates the committed benchmark baselines the CI bench-diff job
/// guards: BENCH_streaming.json (the streaming service mode: an always-on
/// Poisson run with live mutations, measured end to end through the JSONL
/// emitter) and BENCH_scaling.json (batch engine throughput at 1 and 4
/// shards, with the bit-identity audit between them).
///
///   bench_baseline [OUTDIR]      # default: current directory
///
/// Each file is one flat JSON object. Key prefixes carry the comparison
/// contract bench_diff enforces:
///   det_*   deterministic outputs of the run — engine results, window
///           counts, pool high-water. Machine-independent; bench_diff
///           requires an EXACT match, so any drift is a correctness
///           regression, not noise.
///   perf_*  measured performance — throughput, wall time, peak RSS.
///           Machine-dependent; bench_diff allows a multiplicative band
///           of `tolerance` in the unfavourable direction (keys named
///           *_per_sec are higher-is-better, everything else lower).
/// `tolerance` is read from the BASELINE file, so loosening or tightening
/// the band is a reviewed change to the committed artifact.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <cmath>
#include <memory>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "cellular/radio.hpp"
#include "core/facs.hpp"
#include "core/flc2.hpp"
#include "serve/service.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace facs;

/// Peak resident set, MiB (ru_maxrss is KiB on Linux).
double maxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The streaming workload: a 7-cell network served always-on for 1800
/// simulated seconds with a mid-run flash crowd and an outage/restore
/// cycle, so the baseline pins down the mutation path too.
sim::SimulationConfig streamingConfig() {
  sim::SimulationConfig cfg;
  cfg.rings = 1;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.total_requests = 300;  // with window_s: the Poisson rate, 0.5 calls/s
  cfg.arrival_window_s = 600.0;
  cfg.arrivals = sim::ArrivalProcess::Poisson;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 2024;
  cfg.scenario.speed_min_kmh = 10.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 10.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  serve::ScenarioMutation ramp;
  ramp.at_s = 600.0;
  ramp.op = serve::MutationOp::ArrivalScale;
  ramp.scale = 2.0;
  cfg.mutations.push_back(ramp);
  serve::ScenarioMutation outage;
  outage.at_s = 900.0;
  outage.op = serve::MutationOp::Outage;
  outage.cell = 1;
  cfg.mutations.push_back(outage);
  serve::ScenarioMutation restore = outage;
  restore.at_s = 1200.0;
  restore.op = serve::MutationOp::Restore;
  cfg.mutations.push_back(restore);
  return cfg;
}

/// The scaling workload: multi_cell_scaling's dense-district shape, sized
/// for a quick CI run.
sim::SimulationConfig scalingConfig() {
  sim::SimulationConfig cfg;
  cfg.rings = 2;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.total_requests = 1500;
  cfg.arrival_window_s = 1200.0;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = 2024;
  cfg.scenario.speed_min_kmh = 10.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  return cfg;
}

/// Flat-JSON writer: insertion order preserved, shortest round-trip
/// doubles so det_* values survive write→parse→compare exactly.
class FlatJson {
 public:
  void add(const std::string& key, double value) {
    entries_ += entries_.empty() ? "" : ",\n";
    entries_ += "  \"" + key + "\": " + sim::shortestNumber(value);
  }
  void add(const std::string& key, std::uint64_t value) {
    entries_ += entries_.empty() ? "" : ",\n";
    entries_ += "  \"" + key + "\": " + std::to_string(value);
  }
  void add(const std::string& key, int value) {
    add(key, static_cast<std::uint64_t>(value));
  }

  bool writeTo(const std::string& path) const {
    std::ofstream out{path};
    out << "{\n" << entries_ << "\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::string entries_;
};

sim::ControllerFactory policy() {
  // guard:8 keeps the serialized decide O(1), so both baselines measure
  // the engine, not the admission arithmetic (multi_cell_scaling's
  // rationale).
  return cellular::PolicyRuntime::defaultRuntime().makeFactory("guard:8");
}

int benchStreaming(const std::string& path) {
  const sim::SimulationConfig cfg = streamingConfig();
  serve::ServeOptions options;
  options.metrics_every_s = 60.0;
  options.duration_s = 1800.0;
  std::ostringstream stream;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::Metrics metrics =
      serve::serveSimulation(cfg, policy(), options, stream);
  const double wall_s = secondsSince(t0);
  std::uint64_t windows = 0;
  for (const char c : stream.str()) windows += c == '\n';

  FlatJson json;
  json.add("tolerance", 3.0);
  json.add("det_windows", windows);
  json.add("det_new_requests", metrics.new_requests);
  json.add("det_new_accepted", metrics.new_accepted);
  json.add("det_handoff_requests", metrics.handoff_requests);
  json.add("det_handoff_dropped", metrics.handoff_dropped);
  json.add("det_completed", metrics.completed);
  json.add("det_engine_events", metrics.engine_events);
  json.add("det_outage_forced_drops", metrics.outage_forced_drops);
  json.add("det_mutations_applied", metrics.mutations_applied);
  json.add("det_pool_high_water", metrics.peak_concurrent_calls);
  json.add("perf_events_per_sec",
           static_cast<double>(metrics.engine_events) / wall_s);
  json.add("perf_wall_ms", wall_s * 1e3);
  json.add("perf_max_rss_mb", maxRssMb());
  if (!json.writeTo(path)) {
    std::cerr << "bench_baseline: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (" << windows << " windows, "
            << metrics.engine_events << " events)\n";
  return 0;
}

int benchScaling(const std::string& path) {
  const sim::SimulationConfig base = scalingConfig();
  FlatJson json;
  json.add("tolerance", 3.0);
  sim::Metrics reference;
  bool first = true;
  for (const int shards : {1, 4}) {
    sim::SimulationConfig cfg = base;
    cfg.shards = shards;
    const auto t0 = std::chrono::steady_clock::now();
    const sim::Metrics metrics = sim::runSimulation(cfg, policy());
    const double wall_s = secondsSince(t0);
    if (first) {
      reference = metrics;
      first = false;
      json.add("det_new_requests", metrics.new_requests);
      json.add("det_new_accepted", metrics.new_accepted);
      json.add("det_handoff_dropped", metrics.handoff_dropped);
      json.add("det_engine_events", metrics.engine_events);
      json.add("det_busy_bu_seconds", metrics.busy_bu_seconds);
    } else if (metrics.toJson() != reference.toJson()) {
      // The scaling baseline doubles as the determinism audit: a shard
      // count that changes the bits is a bug, never a baseline.
      std::cerr << "bench_baseline: shards=" << shards
                << " diverged from the serial run\n";
      return 1;
    }
    json.add("perf_shards" + std::to_string(shards) + "_events_per_sec",
             static_cast<double>(metrics.engine_events) / wall_s);
  }
  json.add("perf_max_rss_mb", maxRssMb());
  if (!json.writeTo(path)) {
    std::cerr << "bench_baseline: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return 0;
}

int benchMicro(const std::string& path) {
  // The decide-path microbaseline: per-inference latency of FLC2 (the
  // engine every admission decision runs) and of the FACS batch kernel on
  // a commit-window-shaped span. The sweep walks (Cv, R, Cs) through the
  // same grid via the scalar and batch paths and audits the checksums
  // equal before writing — the det_ key pins the engine's arithmetic, the
  // audit pins the batch kernel's bit-identity to it.
  const fuzzy::MamdaniEngine flc2 = core::buildFlc2();

  std::vector<double> inputs;
  for (double cv : {0.05, 0.25, 0.45, 0.45, 0.65, 0.95}) {
    for (double r : {1.0, 5.0, 5.0, 10.0}) {
      for (double cs : {0.0, 8.5, 17.0, 17.0, 17.0, 29.5, 40.0}) {
        inputs.push_back(cv);
        inputs.push_back(r);
        inputs.push_back(cs);
      }
    }
  }
  const std::size_t entries = inputs.size() / 3;

  // Scalar path + checksum; repeated to a fixed work budget for a stable
  // per-inference time.
  constexpr int kScalarRounds = 40;
  double scalar_checksum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kScalarRounds; ++round) {
    double sum = 0.0;
    for (std::size_t e = 0; e < entries; ++e) {
      const std::span<const double> in{inputs.data() + 3 * e, 3};
      sum += flc2.infer(in);
    }
    scalar_checksum = sum;  // identical every round
  }
  const double infer_ns = secondsSince(t0) * 1e9 /
                          static_cast<double>(entries * kScalarRounds);

  // Batch path through the FACS controller (the production route) on the
  // same grid, same order.
  const core::FacsController facs;
  std::vector<core::PendingDecision> batch(entries);
  for (std::size_t e = 0; e < entries; ++e) {
    batch[e].cv = inputs[3 * e];
    batch[e].demand_bu = inputs[3 * e + 1];
    batch[e].occupied_bu = inputs[3 * e + 2];
  }
  constexpr int kBatchRounds = 40;
  double batch_checksum = 0.0;
  const auto t1 = std::chrono::steady_clock::now();
  for (int round = 0; round < kBatchRounds; ++round) {
    facs.evaluateBatch(batch);
    double sum = 0.0;
    for (const core::PendingDecision& p : batch) sum += p.eval.ar;
    batch_checksum = sum;
  }
  const double batch_ns = secondsSince(t1) * 1e9 /
                          static_cast<double>(entries * kBatchRounds);

  if (batch_checksum != scalar_checksum) {
    std::cerr << "bench_baseline: batch kernel diverged from scalar FLC2 ("
              << sim::shortestNumber(batch_checksum) << " vs "
              << sim::shortestNumber(scalar_checksum) << ")\n";
    return 1;
  }

  // The SIR decide path on the 19-cell study network (rings=2, 1.5 km
  // cells), every station partially loaded. The det_ checksum walks the
  // gain-table sinrDb over a position x serving-cell grid
  // (RadioModel.GainTableWalkMatchesScalarReferenceBitForBit checks the
  // tables against the log-domain path-loss chain they replaced).
  cellular::HexNetwork net{2, 1.5};
  {
    cellular::CallId call = 1;
    for (const cellular::Cell& c : net.cells()) {
      net.station(c.id).allocate(
          call++, 1 + static_cast<cellular::BandwidthUnits>(c.id * 7 % 29),
          true);
    }
  }
  const cellular::RadioModel radio{net};
  double sir_checksum = 0.0;
  for (const cellular::Cell& c : net.cells()) {
    for (const double fx : {0.15, -0.4, 0.65}) {
      for (const double fy : {0.3, -0.55}) {
        sir_checksum +=
            radio.sinrDb(cellular::Vec2{c.center.x + fx, c.center.y + fy},
                         c.id);
      }
    }
  }

  // Per-decision latency through the registry-built controller (the
  // production route), radius 0: the exact whole-network sum.
  const std::unique_ptr<cellular::AdmissionController> sir =
      cellular::PolicyRuntime::defaultRuntime().makeController("sir", net);
  cellular::CallRequest sir_request;
  sir_request.service = cellular::ServiceClass::Voice;
  sir_request.demand_bu = 2;
  sir_request.target_cell = 0;
  const cellular::AdmissionContext sir_context{net.station(0)};
  const cellular::Vec2 probes[5] = {{0.15, 0.3},  {-0.6, 0.45}, {1.05, -0.15},
                                    {-0.3, -0.9}, {0.75, 0.75}};
  constexpr int kSirDecides = 200000;
  double sir_score_sink = 0.0;
  const auto t2 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSirDecides; ++i) {
    sir_request.snapshot.position = probes[i % 5];
    sir_score_sink += sir->decide(sir_request, sir_context).score;
  }
  const double sir_decide_ns =
      secondsSince(t2) * 1e9 / static_cast<double>(kSirDecides);
  if (!std::isfinite(sir_score_sink)) {
    std::cerr << "bench_baseline: SIR decide sweep produced a non-finite "
              << "score sum\n";
    return 1;
  }

  FlatJson json;
  json.add("tolerance", 3.0);
  json.add("det_entries", static_cast<std::uint64_t>(entries));
  json.add("det_flc2_checksum", scalar_checksum);
  json.add("det_sir_checksum", sir_checksum);
  json.add("perf_flc2_infer_ns", infer_ns);
  json.add("perf_facs_batch_ns", batch_ns);
  json.add("perf_sir_decide_ns", sir_decide_ns);
  if (!json.writeTo(path)) {
    std::cerr << "bench_baseline: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << " (" << entries << " entries, "
            << "infer " << infer_ns << " ns, batch " << batch_ns
            << " ns, sir decide " << sir_decide_ns << " ns)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outdir = argc > 1 ? std::string{argv[1]} : std::string{"."};
  try {
    const int streaming = benchStreaming(outdir + "/BENCH_streaming.json");
    if (streaming != 0) return streaming;
    const int scaling = benchScaling(outdir + "/BENCH_scaling.json");
    if (scaling != 0) return scaling;
    return benchMicro(outdir + "/BENCH_micro.json");
  } catch (const std::exception& e) {
    std::cerr << "bench_baseline: " << e.what() << "\n";
    return 1;
  }
}
