#pragma once
/// \file simulator.hpp
/// The discrete-event cellular simulator: Poisson/uniform call arrivals,
/// GPS tracking before each admission decision, exponential holding times,
/// optional multi-cell mobility with handoffs, and full capacity-invariant
/// enforcement through the base-station ledgers.
///
/// Execution model (sharded engine): cells are partitioned over
/// SimulationConfig::shards worker shards. Each shard owns the event queues
/// of its cells plus the motion state and RNG stream of every call they
/// carry, and advances in lock-stepped tick windows sized by the mobility
/// update period (the minimum latency at which a call can cross cells).
/// Within a window, shards do the call-local work concurrently — GPS
/// tracking, mobility integration, boundary detection — and hand every
/// shared-state mutation (admission decisions, releases, handoffs) to a
/// commit phase at the tick barrier, which replays the merged per-shard
/// mailboxes in canonical (time, kind, call) order. All randomness is
/// drawn from per-call SplitMix-derived streams, so runs are bit-identical
/// for a fixed seed at ANY shard count, including shards=1 (the serial
/// path: same phases, no worker threads).
///
/// Two-level commit (commit_groups > 1): instead of one serialized commit
/// thread, cells are partitioned into commit groups
/// (cellular::CellGroupPartition) and each group's lane replays its own
/// events concurrently, in the same canonical order. Handoffs that cross a
/// group border cannot commit inside either lane; the source lane releases
/// its half at the crossing instant and posts a Reservation (the paper's
/// inter-BS message, sim/reservation.hpp) into the target group's mailbox,
/// drained in canonical order at the tick-window barrier with every
/// capacity claim re-validated against the live ledger and policy state.
/// Group-parallel lanes require the policy to declare
/// cellular::CommitScope::CellLocal; Global-scope policies (SCC, SIR)
/// degrade to one lane. commit_groups == 1 is bit-identical to the
/// single-threaded commit at any shard count; commit_groups > 1 changes
/// cross-group visibility (see README "Commit groups & reservations") but
/// stays deterministic: fixed (config, seed, groups) gives the same bits
/// at any shard count.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"
#include "serve/mutation.hpp"
#include "sim/metrics.hpp"
#include "sim/workload.hpp"

namespace facs::sim {

/// How cells are mapped onto commit groups (two-level commit lanes).
enum class PartitionStrategy {
  /// Contiguous near-equal-size id ranges — the historical default, and
  /// the bit-identity anchor: every shards × groups combination commits
  /// exactly like the pre-weighted engine.
  Contiguous,
  /// Contiguous near-equal-WEIGHT id ranges: each cell weighs its
  /// arrival_scale × the mean bandwidth demand of its effective traffic
  /// mix, so a hotspot cell stops dragging its whole id range into one
  /// overloaded lane. With repartition_every_s > 0 the engine re-draws
  /// the boundaries at deterministic epoch barriers from observed
  /// per-cell committed-event counts. Seed-stable and shard-invariant at
  /// every group count; groups = 1 is bit-identical to Contiguous (one
  /// lane is one lane).
  Weighted,
};

/// How request arrival instants are drawn.
enum class ArrivalProcess {
  /// The paper's burst semantics: total_requests instants uniform over the
  /// arrival window ("number of requesting connections" on the x-axis).
  UniformBurst,
  /// A Poisson process with rate total_requests / arrival_window_s,
  /// truncated at total_requests arrivals — the steady-state alternative.
  Poisson,
};

/// Per-cell deviations from the uniform network defaults (heterogeneous
/// deployments and hotspot modelling; scenario files spell these as
/// `[cell N]` sections). Ids must be inside the hex disk and unique; an
/// override must set at least one field.
struct CellOverride {
  cellular::CellId cell = 0;
  /// Capacity replacing SimulationConfig::capacity_bu for this cell.
  std::optional<cellular::BandwidthUnits> capacity_bu;
  /// Relative spawn weight of this cell (default weight 1 everywhere): 3
  /// means new requests originate here three times as often as in an
  /// unscaled cell. Must be positive and finite. Any scale != 1 switches
  /// the spawn draw from uniform to weighted — see prepareArrivals().
  std::optional<double> arrival_scale;
  /// Service-class arrival mix for requests spawning in this cell,
  /// replacing the population-wide ScenarioParams::mix (a stadium cell
  /// skews video-heavy while the precinct stays at the paper default).
  std::optional<cellular::TrafficMix> mix;

  /// True when no field is set — a no-op entry validateConfig() rejects.
  [[nodiscard]] bool emptyOverride() const noexcept {
    return !capacity_bu && !arrival_scale && !mix;
  }
};

/// Everything one run needs.
struct SimulationConfig {
  /// Network shape. The paper's evaluation is effectively single-cell
  /// (rings = 0, one 40 BU BS, 10 km radius); rings >= 1 enables the SCC
  /// cluster machinery and handoff statistics.
  int rings = 0;
  double cell_radius_km = 10.0;
  cellular::BandwidthUnits capacity_bu = cellular::kPaperCellCapacityBu;
  /// Per-cell capacity/traffic overrides, at most one entry per cell.
  std::vector<CellOverride> cell_overrides{};

  /// The paper's x-axis: how many connections request admission.
  int total_requests = 50;
  /// Requests arrive over this window, so a larger request count means a
  /// proportionally higher arrival rate.
  double arrival_window_s = 600.0;
  ArrivalProcess arrivals = ArrivalProcess::UniformBurst;
  /// Simulated seconds excluded from all metrics (admissions still happen;
  /// they just are not counted). Use with Poisson arrivals to measure the
  /// steady state instead of the fill-up transient.
  double warmup_s = 0.0;

  /// Multi-cell runs: advance active users and hand calls over when they
  /// cross a cell boundary.
  bool enable_handoffs = false;
  double mobility_update_s = 10.0;

  std::uint64_t seed = 1;
  ScenarioParams scenario{};

  /// Worker shards for one run. 1 = serial (no threads). N > 1 partitions
  /// cells round-robin over N workers that advance in lock-stepped ticks;
  /// metrics are bit-identical to the serial run for the same seed. Counts
  /// above the cell count still help: request preparation (GPS tracking)
  /// is sharded by call, not by cell. Must be in [1, kMaxShards].
  int shards = 1;

  /// Commit lanes for the two-level commit scheme. 1 (default) = one
  /// serialized commit phase, bit-identical to the pre-grouped engine at
  /// any shard count. N > 1 partitions cells into N contiguous groups
  /// whose lanes commit concurrently, exchanging cross-group handoffs as
  /// Reservations at the tick-window barrier. Requires a policy with
  /// cellular::CommitScope::CellLocal — Global-scope policies silently
  /// degrade to one lane (Metrics::commit_groups reports the effective
  /// count). Deterministic for fixed (config, seed): the same groups give
  /// the same bits at any shard count, but different group counts are
  /// different (documented) visibility semantics, not reorderings of one
  /// truth. Must be in [1, kMaxShards].
  int commit_groups = 1;

  /// Cell-to-commit-group mapping strategy. Contiguous (default) keeps
  /// the historical near-equal-size ranges; Weighted balances ranges by
  /// spawn weight (arrival_scale × mean mix demand). Irrelevant when the
  /// effective group count is 1.
  PartitionStrategy partition = PartitionStrategy::Contiguous;

  /// Weighted partition only: > 0 re-draws the group boundaries every
  /// this many simulated seconds, at the first tick-window barrier at or
  /// past each epoch instant, using per-cell committed-event counts as
  /// load weights — a deterministic proxy for lane wall time. The engine
  /// clamps windows so a barrier lands exactly on each epoch (same
  /// mechanism as mutations; a mutation due at the same instant applies
  /// first). 0 disables re-partitioning. Rejected unless partition is
  /// Weighted.
  double repartition_every_s = 0.0;

  /// Scheduled workload changes (serve/mutation.hpp), applied only at
  /// tick-window barriers: the engine clamps the window so a barrier
  /// lands exactly at each mutation's `at_s`, keeping mutated runs
  /// deterministic at any shard count. Scenario files spell these as
  /// `[at T]` sections. Kept in file order; equal timestamps apply in
  /// this order.
  std::vector<serve::ScenarioMutation> mutations{};

  /// Run every admission decision with AdmissionContext::explain set, so
  /// policies fill their rationale text. Decisions (and thus all counters)
  /// are identical either way; the engine additionally counts rationales
  /// that overflowed ReasonText's inline capacity
  /// (Metrics::truncated_rationales), so cut explanations are detectable
  /// instead of silently losing their tails. Off by default — rationale
  /// formatting costs time on the serialized commit path.
  bool explain = false;
};

/// Upper bound on SimulationConfig::shards (sanity cap, not a tuning hint:
/// useful values are <= hardware threads).
inline constexpr int kMaxShards = 256;

/// Upper bound on SimulationConfig::rings — a sanity cap (788k cells) so
/// an absurd value in an untrusted scenario file is rejected at validate
/// time instead of overflowing hexDiskCellCount() or exhausting memory.
inline constexpr int kMaxRings = 512;

/// Builds a fresh admission controller for a run. Receives the network so
/// topology-aware policies (SCC) can hold a reference to it. Obtain one
/// from a `cellular::PolicyRuntime` — e.g.
/// `cellular::PolicyRuntime::defaultRuntime().makeFactory("facs")`, or an
/// instance extended with `registerExternal()` — rather than constructing
/// controllers by hand.
using ControllerFactory = cellular::ControllerFactory;

/// Checks a configuration for nonsensical values (negative request counts,
/// empty arrival windows, inverted GPS windows, ...).
/// \throws std::invalid_argument describing the first problem found.
void validateConfig(const SimulationConfig& config);

/// Runs one simulation to completion and returns its metrics.
///
/// Deterministic: the same (config, factory) pair always produces the same
/// metrics. \throws std::invalid_argument on nonsensical configuration.
[[nodiscard]] Metrics runSimulation(const SimulationConfig& config,
                                    const ControllerFactory& make_controller);

// ----------------------------------------------------------- serve hooks

/// Allocation-substrate counters sampled at a window barrier — the memory
/// story of the streaming engine, reported per window so a consumer can
/// assert flatness (pool_grow_events stops moving after warmup).
struct EngineWindowStats {
  std::uint64_t pool_capacity = 0;     ///< Call-pool slots allocated.
  std::uint64_t pool_live = 0;         ///< Live calls right now.
  std::uint64_t pool_high_water = 0;   ///< Max simultaneous live calls.
  std::uint64_t pool_acquired = 0;     ///< Lifetime slot acquisitions.
  std::uint64_t pool_released = 0;     ///< Lifetime slot releases.
  std::uint64_t pool_grow_events = 0;  ///< Slab allocations (flat = good).
  std::uint64_t ring_capacity = 0;     ///< Per-shard outbox ring capacity.
  std::uint64_t ring_high_water = 0;   ///< Max ring occupancy (any shard).
  std::uint64_t ring_spills = 0;       ///< Entries that overflowed a ring.
  int mutations_applied = 0;           ///< Cumulative mutations so far.
};

/// One metrics window, emitted at a tick-window barrier. `cumulative` is
/// the run's full Metrics snapshot at t1 — folded exactly like the final
/// result, so the LAST window's cumulative is bit-identical to the batch
/// return value and integer deltas between consecutive windows sum
/// exactly to the batch totals.
struct WindowSnapshot {
  std::uint64_t index = 0;   ///< 0-based emission index.
  double t0 = 0.0;           ///< Window start (previous emission barrier).
  double t1 = 0.0;           ///< This barrier's instant.
  bool final_window = false; ///< Set on the drain/end-of-run emission.
  Metrics cumulative;
  EngineWindowStats stats;
};

/// Streaming-mode contract for runSimulation: window snapshots aligned to
/// the engine's own tick-window barriers (never extra barriers, so a
/// hooked run commits identically to an unhooked one), plus optional
/// unbounded arrivals for always-on service.
struct ServiceHooks {
  /// Emission cadence: snapshots fire at the first barrier at or past
  /// each multiple of this. 0 = every barrier. When the run has no
  /// natural barriers (handoffs off = one infinite window), the engine
  /// windows the run at this period instead — outcome-neutral there,
  /// because windowing only partitions the canonical replay.
  double metrics_every_s = 0.0;
  /// > 0: ignore total_requests and keep drawing Poisson arrivals until
  /// this simulated instant, then drain. Requires ArrivalProcess::Poisson.
  double serve_duration_s = 0.0;
  /// Called at each emission barrier (single-threaded).
  std::function<void(const WindowSnapshot&)> on_window;
};

/// runSimulation with streaming hooks. With default hooks this IS the
/// batch run — same engine, same bits.
[[nodiscard]] Metrics runSimulation(const SimulationConfig& config,
                                    const ControllerFactory& make_controller,
                                    const ServiceHooks& hooks);

}  // namespace facs::sim
