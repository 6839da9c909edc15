#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads: the inputs each one generates from the
/// seed, one closed-loop iteration through the simulator's public entry
/// points, and the per-iteration correctness checks.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cellular/policy_registry.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace facsbench {

enum class WorkloadId { Metro1k, PaperSweep, MetroServe };

[[nodiscard]] std::optional<WorkloadId> parseWorkload(std::string_view name);
[[nodiscard]] std::string_view workloadName(WorkloadId id) noexcept;

/// Each workload has this many input variants; --seed picks one
/// (seed mod kInputVariants), and facsbench/digests.json records the
/// expected output digest of every variant.
inline constexpr std::uint64_t kInputVariants = 64;

/// Everything the seed determines. The simulator only ever receives the
/// SimulationConfig (and, on paper-sweep, the SweepSpec) built here.
struct Inputs {
  WorkloadId id = WorkloadId::Metro1k;
  std::uint64_t variant = 0;
  /// The run's config; on paper-sweep, the curves' shared base config.
  facs::sim::SimulationConfig config;
  /// Policy spec per curve (one entry on the metro workloads).
  std::vector<std::string> policies;
  facs::sim::SweepSpec sweep;  ///< paper-sweep only.
  /// Window period in simulated seconds (metro-1k hooks, metro-serve JSONL).
  double metrics_every_s = 0.0;
  double serve_duration_s = 0.0;  ///< metro-serve only.
};

[[nodiscard]] Inputs makeInputs(WorkloadId id, std::uint64_t seed);

/// How to run one iteration.
struct RunOptions {
  bool traced = false;       ///< Decorate controllers and record spans.
  std::uint64_t index = 0;   ///< Iteration index (span call id).
  int shards = 0;            ///< > 0 overrides the workload's shard count.
  int sweep_threads = 0;     ///< > 0 overrides paper-sweep's thread count.
  /// metro-1k / metro-serve: the plain batch runSimulation with no window
  /// hooks and no stream — the reference the windowed runs must match.
  bool batch_reference = false;
};

/// One iteration's outputs.
struct Iteration {
  /// Every run's Metrics (phase times included): one on the metro
  /// workloads, each (curve, x, replication) in sweep order on paper-sweep.
  std::vector<facs::sim::Metrics> runs;
  std::string det;        ///< Each run's toJson(), newline-joined.
  double wall_s = 0.0;    ///< Wall time of the simulator call alone.
  /// Wall-clock marks (ns) at each window: JSONL record ends (metro-serve),
  /// engine window snapshots while arrivals are open (metro-1k), controller
  /// constructions, one per sweep run (paper-sweep).
  std::vector<std::int64_t> marks;
  std::string jsonl;      ///< metro-serve: the stream serveSimulation wrote.
  double write_s = 0.0;   ///< metro-serve: time inside the stream's writes.

  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::uint64_t events() const;
  /// An integer field of the stream's last record (0 without a stream).
  [[nodiscard]] long long lastRecord(std::string_view key) const;
};

/// The set-up a run pays before its first event, by component.
struct SetupTimes {
  double validate_s = 0.0;
  double network_s = 0.0;
  double controller_s = 0.0;  ///< Spec → factory → one controller.

  [[nodiscard]] double total() const noexcept {
    return validate_s + network_s + controller_s;
  }
};

class Workload {
 public:
  Workload(WorkloadId id, std::uint64_t seed);

  [[nodiscard]] const Inputs& inputs() const noexcept { return in_; }
  [[nodiscard]] std::string_view name() const noexcept {
    return workloadName(in_.id);
  }

  /// One closed-loop iteration: a single call into the simulator.
  [[nodiscard]] Iteration run(const RunOptions& options) const;

  /// Invariants every iteration must hold; one message per violation.
  [[nodiscard]] std::vector<std::string> check(const Iteration& it) const;

  /// Times validateConfig + HexNetwork + spec → factory → controller once
  /// (once per curve on paper-sweep, which pays it for both policies).
  [[nodiscard]] SetupTimes measureSetup() const;

  /// GPS fixes per tracking walk (0 when tracking is off).
  [[nodiscard]] int fixCount() const noexcept;

 private:
  Inputs in_;
  std::vector<facs::cellular::ControllerFactory> factories_;
};

}  // namespace facsbench
