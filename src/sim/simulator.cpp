#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "mobility/gps.hpp"
#include "serve/call_pool.hpp"
#include "serve/ring_buffer.hpp"
#include "sim/event_queue.hpp"
#include "sim/reservation.hpp"
#include "sim/shard.hpp"

namespace facs::sim {

namespace {

using cellular::AdmissionContext;
using cellular::CallId;
using cellular::CallRequest;
using cellular::CellId;
using cellular::HexNetwork;
using cellular::ServiceClass;
using mobility::MotionState;

/// Where randomness streams live in the (seed, stream) split space. Every
/// call owns stream kCallStreamBase + id, so its draws (spawn, GPS noise,
/// holding time, mobility) never depend on how calls interleave — the
/// foundation of shard-count-independent results, and of the lazy window
/// materialization below: WHEN a call is built cannot change WHAT it
/// draws.
constexpr std::uint64_t kArrivalStream = 0;
constexpr std::uint64_t kCallStreamBase = 16;

/// Per-shard outbox ring capacity (entries). A window's outbox holds at
/// most the events that commit in that window, which tracks concurrent
/// calls, not cumulative ones; overflow spills to a counted vector, so an
/// undersized ring degrades visibly (EngineWindowStats::ring_spills), not
/// fatally.
constexpr std::size_t kOutboxRingCapacity = 4096;

/// Lifecycle of one simulated call.
enum class CallPhase : std::uint8_t {
  Pending,  ///< Tracked, waiting for its admission instant.
  Active,   ///< Admitted and holding bandwidth.
  Done,     ///< Completed, blocked, dropped, or left coverage.
};

/// Everything one call owns, living in a pool slot for exactly the call's
/// lifetime. Shard workers touch only calls their cells carry; within the
/// commit phase, exactly one group lane (the lane of the call's current
/// cell) may touch a call per window, and the barrier drain runs alone.
struct CallState {
  CallRequest request;  ///< target_cell kept current across handoffs.
  MotionState state;    ///< Ground truth.
  mobility::SpeedDependentTurn model;
  Rng rng;              ///< Per-call stream; all of this call's draws.
  double end_time_s = -1.0;  ///< Valid while Active.
  CallPhase phase = CallPhase::Pending;
  /// Ownership generation: bumped when the call changes shard (handoff) so
  /// event copies left in the old owner's queue are recognisably stale.
  /// Also bumped when a cross-group reservation is posted, so no event can
  /// execute while the claim is in flight to the barrier.
  std::uint32_t epoch = 0;
  /// The pool slot this call occupies — stamped at acquire so commits can
  /// schedule follow-up events carrying it (events are validated against
  /// the slot's occupant, the cross-lifetime staleness check).
  std::uint32_t slot = serve::kNoSlot;
  /// Snapshot-only policy work precomputed off the serialized commit path:
  /// set by the parallel prepare phase for the initial decision, re-run by
  /// the local phase whenever a mobility step produces the new snapshot a
  /// handoff decision will use (so it is always current when its decision
  /// commits). Invalid when the policy has no snapshot-only stage — it
  /// then infers inline.
  cellular::PredictedCv predicted{};

  explicit CallState(const mobility::SpeedDependentTurnParams& turn)
      : model{turn} {}
};

/// How many commit lanes a run gets: the configured group count when the
/// policy promises cell-local or group-local commits, one serialized lane
/// for Global scope (the partition further clamps to the cell count).
/// GroupLocal policies learn the mapping through onPartitionChanged() and
/// drain their cross-group residue at onCommitBarrier().
[[nodiscard]] int requestedLanes(const SimulationConfig& cfg,
                                 const cellular::AdmissionController& c) {
  if (c.commitScope() == cellular::CommitScope::Global) return 1;
  return std::max(1, cfg.commit_groups);
}

/// Static spawn weights for the weighted partition: each cell weighs its
/// arrival_scale (default 1) times the mean bandwidth demand of the mix its
/// spawns draw from — the expected BU/arrival load the cell feeds its lane.
/// A pure function of the config, so the initial weighted partition is
/// identical at every shard count.
[[nodiscard]] std::vector<double> spawnWeightsOf(const SimulationConfig& cfg,
                                                 const HexNetwork& network) {
  const double base_demand = cfg.scenario.mix.meanDemandBu();
  std::vector<double> w(network.cellCount(), base_demand);
  for (const CellOverride& o : cfg.cell_overrides) {
    const double scale = o.arrival_scale.value_or(1.0);
    const double demand = o.mix ? o.mix->meanDemandBu() : base_demand;
    w[static_cast<std::size_t>(o.cell)] = scale * demand;
  }
  return w;
}

/// The run's initial cell-to-lane mapping. The weighted strategy only
/// engages at more than one lane: a single lane has nothing to balance, and
/// routing it through the historical constructor keeps groups == 1 runs
/// bit-identical to the pre-weighted engine by construction.
[[nodiscard]] cellular::CellGroupPartition makePartition(
    const SimulationConfig& cfg, const HexNetwork& network, int lanes) {
  if (lanes > 1 && cfg.partition == PartitionStrategy::Weighted) {
    return cellular::CellGroupPartition{network, lanes,
                                        spawnWeightsOf(cfg, network)};
  }
  return cellular::CellGroupPartition{network, lanes};
}

/// Arrival-instant source. The batch engine drew every instant up front;
/// serve mode cannot (an always-on run has no "all arrivals"), so the
/// source draws lazily from the same kArrivalStream in the same order —
/// the consumed RNG sequence is identical, which keeps lazy materialized
/// runs bit-identical to the historical upfront path.
class ArrivalSource {
 public:
  void init(const SimulationConfig& cfg, double serve_duration_s) {
    rng_ = makeRng(cfg.seed, kArrivalStream);
    mode_ = cfg.arrivals;
    if (mode_ == ArrivalProcess::UniformBurst) {
      times_.reserve(static_cast<std::size_t>(cfg.total_requests));
      for (int i = 0; i < cfg.total_requests; ++i) {
        times_.push_back(
            sampleUniform(rng_, 0.0, cfg.arrival_window_s));
      }
      std::sort(times_.begin(), times_.end());
      return;
    }
    base_rate_ =
        static_cast<double>(cfg.total_requests) / cfg.arrival_window_s;
    duration_s_ = serve_duration_s;
    remaining_ = serve_duration_s > 0.0
                     ? std::numeric_limits<long long>::max()
                     : static_cast<long long>(cfg.total_requests);
    drawNext();
  }

  /// Next arrival instant, if any.
  [[nodiscard]] std::optional<double> peek() const noexcept {
    if (mode_ == ArrivalProcess::UniformBurst) {
      if (index_ < times_.size()) return times_[index_];
      return std::nullopt;
    }
    if (have_pending_) return pending_;
    return std::nullopt;
  }

  void pop() {
    if (mode_ == ArrivalProcess::UniformBurst) {
      ++index_;
      return;
    }
    drawNext();
  }

  /// Global rate ramp at a barrier: scale the rate of every draw from
  /// \p at_s on, and rescale the residual of the already-drawn pending
  /// arrival memorylessly (exponential residuals are themselves
  /// exponential, so stretching the part past the barrier by the rate
  /// ratio preserves the process without losing or reordering a draw).
  void rescale(double new_scale, double at_s) {
    if (mode_ != ArrivalProcess::Poisson) return;  // validated upstream
    if (have_pending_ && pending_ > at_s) {
      pending_ = at_s + (pending_ - at_s) * (scale_ / new_scale);
      last_ = pending_;
    }
    scale_ = new_scale;
  }

 private:
  void drawNext() {
    if (remaining_ <= 0) {
      have_pending_ = false;
      return;
    }
    const double mean = 1.0 / (base_rate_ * scale_);
    const double t = last_ + sampleExponential(rng_, mean);
    if (duration_s_ > 0.0 && t >= duration_s_) {
      // Service window over: drain from here on.
      have_pending_ = false;
      remaining_ = 0;
      return;
    }
    pending_ = t;
    last_ = t;
    have_pending_ = true;
    --remaining_;
  }

  ArrivalProcess mode_ = ArrivalProcess::UniformBurst;
  Rng rng_;
  // UniformBurst: all instants drawn and sorted up front (the paper's
  // burst has no steady state to stream).
  std::vector<double> times_;
  std::size_t index_ = 0;
  // Poisson: one draw ahead.
  double base_rate_ = 0.0;
  double scale_ = 1.0;
  double pending_ = 0.0;
  double last_ = 0.0;
  bool have_pending_ = false;
  long long remaining_ = 0;
  double duration_s_ = 0.0;
};

class Engine {
 public:
  Engine(const SimulationConfig& cfg, const ControllerFactory& make_controller,
         const ServiceHooks& hooks)
      : cfg_{cfg},
        hooks_{hooks},
        network_{cfg.rings, cfg.cell_radius_km, cfg.capacity_bu,
                 capacityOverrides(cfg)},
        controller_{make_controller(network_)},
        partition_{makePartition(
            cfg, network_, controller_ ? requestedLanes(cfg, *controller_) : 1)},
        shard_count_{std::max(1, std::min(cfg.shards, kMaxShards))},
        pool_{shard_count_},
        queues_(static_cast<std::size_t>(shard_count_)),
        rings_(static_cast<std::size_t>(shard_count_),
               serve::RingBuffer<CommitEntry>{kOutboxRingCapacity}),
        spills_(static_cast<std::size_t>(shard_count_)),
        local_events_(static_cast<std::size_t>(shard_count_), 0),
        lanes_(static_cast<std::size_t>(partition_.groups())),
        mailboxes_(static_cast<std::size_t>(partition_.groups())) {
    if (!controller_) {
      throw std::invalid_argument("controller factory returned nullptr");
    }
    prepareCellOverrides();
    // The policy learns the startup mapping before any decision commits;
    // every adopted repartition epoch re-announces it (barrier context).
    controller_->onPartitionChanged(partition_);
    const std::string warning =
        controller_->auditWorkload(cellular::WorkloadEnvelope{
            cfg_.scenario.speed_max_kmh, cfg_.cell_radius_km});
    if (!warning.empty()) {
      // Once per run, on stderr so diffable stdout never moves; counted so
      // JSON consumers see the degradation too.
      std::cerr << "sim: warning: " << warning << "\n";
      ++metrics_.policy_warnings;
    }
    if (cfg_.repartition_every_s > 0.0 && partition_.groups() > 1) {
      // Observed-load epochs: per-cell committed-event counts feed the
      // epoch re-partitions. Only maintained when they can matter (a
      // single lane never re-partitions, and a degraded Global-scope run
      // is a single lane).
      cell_events_.assign(network_.cellCount(), 0);
      next_epoch_s_ = cfg_.repartition_every_s;
    }
    mutation_order_ = serve::mutationSchedule(cfg_.mutations);
    for (const serve::ScenarioMutation& m : cfg_.mutations) {
      if (m.op == serve::MutationOp::Outage ||
          m.op == serve::MutationOp::Restore) {
        down_.assign(network_.cellCount(), 0);
        break;
      }
    }
    if (cfg_.scenario.tracking_window_s > 0.0) {
      // Per-shard scratch estimators: call preparation reuses them instead
      // of constructing one per call, so the steady-state prepare path
      // never touches the allocator.
      const int fix_count =
          static_cast<int>(cfg_.scenario.tracking_window_s /
                           cfg_.scenario.gps_fix_period_s) +
          1;
      scratch_est_.reserve(static_cast<std::size_t>(shard_count_));
      for (int s = 0; s < shard_count_; ++s) {
        scratch_est_.emplace_back(
            static_cast<std::size_t>(std::max(2, fix_count)));
      }
    }
  }

  Metrics execute() {
    // Phase wall clocks: commit_phase_s / total is the measured serial
    // fraction (what caps sharded speedup). Timing is observational only —
    // never an input to any simulation outcome.
    const auto stamp = [] { return std::chrono::steady_clock::now(); };
    const auto since = [](std::chrono::steady_clock::time_point a,
                          std::chrono::steady_clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };

    auto t0 = stamp();
    arrivals_.init(cfg_, hooks_.serve_duration_s);
    auto t1 = stamp();
    metrics_.prepare_phase_s = since(t0, t1);
    metrics_.commit_groups = partition_.groups();

    // Tick windows: with handoffs the barrier period is the mobility update
    // (the minimum latency at which one cell's state can matter to
    // another); without cross-cell traffic one unbounded window suffices —
    // unless a streaming consumer wants periodic snapshots, in which case
    // the run is windowed at the emission period instead. Windowing a
    // no-handoff run is outcome-neutral: with no cross-cell traffic there
    // is nothing a barrier could reorder, the canonical replay is merely
    // partitioned. Mutations additionally clamp any window so a barrier
    // lands exactly at each mutation instant.
    const double window_s =
        cfg_.enable_handoffs
            ? cfg_.mobility_update_s
            : (hooks_.on_window && hooks_.metrics_every_s > 0.0
                   ? hooks_.metrics_every_s
                   : std::numeric_limits<double>::infinity());
    const bool grouped = partition_.groups() > 1;
    next_emit_s_ = hooks_.metrics_every_s;

    while (true) {
      auto next = nextEventTime();
      // Mutations and partition epochs due before the next event: the
      // window ending at their instant is empty, so apply them right here
      // (an empty window's barrier); a mutation due at the same instant as
      // an epoch applies first. Rate ramps can move the next arrival, so
      // re-peek.
      while (next &&
             (nextMutationTime() <= *next || nextEpochTime() <= *next)) {
        if (nextMutationTime() <= nextEpochTime()) {
          applyNextMutation();
        } else {
          repartitionEpoch(nextEpochTime());
        }
        next = nextEventTime();
      }
      if (!next) break;

      double window_end = std::numeric_limits<double>::infinity();
      if (std::isfinite(window_s)) {
        const double k = std::floor(*next / window_s);
        window_end = (k + 1.0) * window_s;
      }
      // Clamp so a barrier lands exactly at the next mutation instant and
      // at the next partition epoch. Progress is guaranteed: the pre-step
      // above left both strictly past *next.
      window_end = std::min(window_end, nextMutationTime());
      window_end = std::min(window_end, nextEpochTime());

      t0 = stamp();
      materializeWindow(window_end);
      t1 = stamp();
      metrics_.prepare_phase_s += since(t0, t1);

      runLocalPhase(window_end);
      const auto t2 = stamp();
      metrics_.local_phase_s += since(t1, t2);

      // Commit: route the merged mailboxes to the group lanes (serial),
      // replay each lane (concurrent when grouped; THE serialized commit
      // when not), then drain cross-group reservations and flush deferred
      // events at the barrier (serial). With one lane everything lands in
      // commit_phase_s — the pre-grouped accounting; with several, the
      // lane replay is no longer serialized and is reported separately.
      routeCommits();
      const auto t3 = stamp();
      runLanes(window_end);
      const auto t4 = stamp();
      drainBarrier(window_end);
      releaseFreed();
      const auto t5 = stamp();
      if (grouped) {
        metrics_.commit_phase_s += since(t2, t3) + since(t4, t5);
        metrics_.commit_lane_s += since(t3, t4);
      } else {
        metrics_.commit_phase_s += since(t2, t5);
      }

      // Mutations due exactly at this barrier apply now, after every
      // commit of the window (events at the mutation instant itself
      // belong to the NEXT window — popBefore is strict). The explicit
      // cursor check matters: at an unbounded window both sides are +inf.
      while (next_mutation_ < mutation_order_.size() &&
             nextMutationTime() <= window_end) {
        applyNextMutation();
      }
      // A partition epoch landing exactly on this barrier re-draws the
      // group boundaries now — after every commit, mutation and drained
      // reservation of the window (the mapping is constant within any
      // window, and no claim is ever in flight across a re-partition).
      // The explicit enablement check matters: at an unbounded window
      // both sides of the comparison are +inf.
      while (!cell_events_.empty() && nextEpochTime() <= window_end) {
        repartitionEpoch(nextEpochTime());
      }
      maybeEmit(window_end);
    }

    double last_change_s = 0.0;
    for (const GroupLane& lane : lanes_) {
      last_change_s = std::max(last_change_s, lane.last_change_s);
    }
    // Trailing events can all be stale (dead calls' queued moves), in
    // which case the last metric change precedes the last emitted barrier
    // — clamp so the final window never runs backwards.
    if (hooks_.on_window) {
      emitWindow(std::max(last_change_s, last_emit_t_), /*final_window=*/true);
    }
    return snapshotMetrics();
  }

 private:
  using Queue = EventQueue<ShardEvent>;

  /// Per-window deferred schedule: an event that belongs to a later window
  /// and must be pushed into a shard queue — which lanes cannot do
  /// concurrently (two groups' cells may share a shard queue), so lanes
  /// buffer these and the barrier flushes them serially.
  struct DeferredEvent {
    double time_s = 0.0;
    CellId cell = 0;
    ShardEvent event;
  };

  /// A drop-path controller release deferred out of the parallel
  /// reservation drain: onReleased() names the SOURCE cell's station,
  /// which belongs to a foreign group, so running it inside a per-group
  /// drain would be the one cross-group touch of the whole barrier. Each
  /// drain appends these in its canonical drain order; the barrier
  /// tree-combines the per-lane runs (mergeCombine) and replays the result
  /// serially in global (time, call) order.
  struct DeferredRelease {
    double time_s = 0.0;
    CallId call = 0;
    CallRequest request;  ///< The source half (pre-handoff target_cell).
    CellId from_cell = 0;
  };

  struct DeferredReleaseEarlier {
    bool operator()(const DeferredRelease& a,
                    const DeferredRelease& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s < b.time_s;
      return a.call < b.call;
    }
  };

  /// One commit lane: the canonical-order replay queue of one cell group
  /// plus everything the lane accumulates privately — outgoing reservation
  /// claims, deferred schedules, slots its commits finished (recycled at
  /// the barrier: lanes run concurrently and must not touch the shared
  /// freelist), its group's slice of the occupancy integral and of the
  /// counters. Lanes never touch each other's state; the barrier folds
  /// them in group order.
  struct GroupLane {
    std::priority_queue<CommitEntry, std::vector<CommitEntry>, CommitLater>
        queue;
    std::vector<Reservation> outgoing;
    std::vector<DeferredEvent> deferred;
    /// Drop-path controller releases this lane's reservation drain
    /// deferred (already in canonical order — the drain order).
    std::vector<DeferredRelease> releases;
    /// Pool slots of calls this lane finished this window; released by the
    /// single-threaded barrier in lane order (deterministic freelist).
    std::vector<std::uint32_t> freed;
    /// Group-local occupancy integral: occupied BU over this group's
    /// cells, integrated at each committed change exactly like the
    /// pre-grouped engine integrated the network total.
    double last_change_s = 0.0;
    double busy_bu_seconds = 0.0;
    cellular::BandwidthUnits occupied_bu = 0;
    /// Counter slice (only the counters lanes touch are merged).
    Metrics partial;
    std::uint64_t events = 0;
    /// Reservations this lane resolved at barriers (admitted or dropped) —
    /// barrier work attributed to the lane for Metrics::lane_events, kept
    /// apart from `events` because reservation commits were never part of
    /// engine_events and must not become part of it.
    std::uint64_t barrier_events = 0;
    /// Wall clock this lane spent running: its canonical replay plus its
    /// share of the parallel reservation drain (Metrics::lane_commit_s).
    /// Observational only — never an input to any outcome.
    double wall_s = 0.0;
  };

  [[nodiscard]] static std::vector<cellular::CellCapacityOverride>
  capacityOverrides(const SimulationConfig& cfg) {
    std::vector<cellular::CellCapacityOverride> out;
    for (const CellOverride& o : cfg.cell_overrides) {
      if (o.capacity_bu) out.emplace_back(o.cell, *o.capacity_bu);
    }
    return out;
  }

  /// Digests cell_overrides into the spawn-weight CDF and per-cell mix
  /// table. Both stay empty when no override needs them, keeping the
  /// unscaled run on the exact legacy draw sequence (bit-identical).
  void prepareCellOverrides() {
    bool weighted = false;
    bool mixed = false;
    for (const CellOverride& o : cfg_.cell_overrides) {
      if (o.arrival_scale && *o.arrival_scale != 1.0) weighted = true;
      if (o.mix) mixed = true;
    }
    if (weighted) {
      ensureSpawnWeights();
      rebuildSpawnCdf();
    }
    if (mixed) {
      cell_mix_.resize(network_.cellCount());
      for (const CellOverride& o : cfg_.cell_overrides) {
        if (o.mix) cell_mix_[static_cast<std::size_t>(o.cell)] = o.mix;
      }
    }
  }

  /// Lazily switches the spawn draw to weighted mode: unit weights seeded
  /// with whatever arrival_scale overrides the config carries. A per-cell
  /// ArrivalScale mutation on an unweighted config lands here — calls
  /// materialized after it draw their spawn cell from the CDF.
  void ensureSpawnWeights() {
    if (!spawn_weight_.empty()) return;
    spawn_weight_.assign(network_.cellCount(), 1.0);
    for (const CellOverride& o : cfg_.cell_overrides) {
      if (o.arrival_scale) {
        spawn_weight_[static_cast<std::size_t>(o.cell)] = *o.arrival_scale;
      }
    }
  }

  void rebuildSpawnCdf() {
    spawn_cdf_.resize(spawn_weight_.size());
    double total = 0.0;
    for (std::size_t i = 0; i < spawn_weight_.size(); ++i) {
      total += spawn_weight_[i];
      spawn_cdf_[i] = total;
    }
  }

  [[nodiscard]] int shardOf(CellId cell) const noexcept {
    return static_cast<int>(static_cast<std::size_t>(cell) %
                            static_cast<std::size_t>(shard_count_));
  }

  [[nodiscard]] int laneOf(CellId cell) const {
    return partition_.groupOf(cell);
  }

  [[nodiscard]] bool isDown(CellId cell) const noexcept {
    return !down_.empty() && down_[static_cast<std::size_t>(cell)] != 0;
  }

  /// Resolves an event to its call iff the slot still carries the call the
  /// event was scheduled for — the cross-lifetime staleness check (pool
  /// slots recycle; epochs cover staleness within one lifetime).
  [[nodiscard]] CallState* liveCall(const ShardEvent& ev) {
    if (call_pool_.occupantOf(ev.slot) != ev.call) return nullptr;
    return &call_pool_.at(ev.slot);
  }

  [[nodiscard]] std::optional<double> nextEventTime() const {
    std::optional<double> best;
    for (const Queue& q : queues_) {
      const auto t = q.peekTime();
      if (t && (!best || *t < *best)) best = t;
    }
    if (const auto t = arrivals_.peek()) {
      // An unmaterialized arrival's first event is its admission decision.
      const double d = *t + cfg_.scenario.tracking_window_s;
      if (!best || d < *best) best = d;
    }
    return best;
  }

  [[nodiscard]] double nextMutationTime() const noexcept {
    if (next_mutation_ >= mutation_order_.size()) {
      return std::numeric_limits<double>::infinity();
    }
    return cfg_.mutations[mutation_order_[next_mutation_]].at_s;
  }

  void applyNextMutation() {
    applyMutation(cfg_.mutations[mutation_order_[next_mutation_++]]);
    ++metrics_.mutations_applied;
  }

  /// Next weighted-partition epoch boundary (+inf when re-partitioning is
  /// off or the run degraded to one lane).
  [[nodiscard]] double nextEpochTime() const noexcept {
    return next_epoch_s_;
  }

  /// Re-draws the group boundaries from the load observed since the last
  /// epoch: per-cell committed-event counts (+1, so silent cells keep a
  /// non-zero weight and all-silent epochs degrade to uniform) feed the
  /// weighted partition. Deterministic — the counts are pure functions of
  /// (config, seed), never wall time. Runs only in barrier context (lanes
  /// quiesced, mailboxes drained, deferred events flushed), so remapping a
  /// cell can never strand an in-flight claim or a queued lane event; the
  /// per-group occupancy integrals are closed at \p at_s and re-based from
  /// the live ledgers under the new mapping.
  void repartitionEpoch(double at_s) {
    next_epoch_s_ += cfg_.repartition_every_s;
    epoch_weights_.resize(cell_events_.size());
    for (std::size_t i = 0; i < cell_events_.size(); ++i) {
      epoch_weights_[i] = static_cast<double>(cell_events_[i] + 1);
      cell_events_[i] = 0;  // each epoch rebalances on ITS observed load
    }
    cellular::CellGroupPartition next{network_, partition_.groups(),
                                      epoch_weights_};
    bool changed = false;
    for (const cellular::Cell& cell : network_.cells()) {
      if (next.groupOf(cell.id) != partition_.groupOf(cell.id)) {
        changed = true;
        break;
      }
    }
    if (!changed) return;

    // Boundary hysteresis: a re-draw that barely improves the projected
    // max/mean imbalance is flapping, not balancing — moving cells costs
    // GroupLocal policies a store migration and the occupancy integrals a
    // re-base, for noise-level gain on a near-balanced disk. Skip unless
    // the new mapping beats the old by the adoption threshold (on THIS
    // epoch's observed weights; deterministic either way).
    if (weightImbalance(partition_) - weightImbalance(next) <
        kRepartitionHysteresis) {
      ++metrics_.repartitions_skipped;
      return;
    }

    for (GroupLane& lane : lanes_) noteOccupancy(lane, at_s);
    policyBarrier(at_s);  // no deferred policy work may outlive the mapping
    partition_ = std::move(next);
    for (GroupLane& lane : lanes_) lane.occupied_bu = 0;
    for (const cellular::Cell& cell : network_.cells()) {
      lanes_[static_cast<std::size_t>(laneOf(cell.id))].occupied_bu +=
          network_.station(cell.id).occupiedBu();
    }
    controller_->onPartitionChanged(partition_);
    ++metrics_.repartitions;
  }

  /// Minimum projected imbalance gain (max/mean group weight, a pure ratio)
  /// an epoch re-draw must deliver to be adopted.
  static constexpr double kRepartitionHysteresis = 0.02;

  /// Max/mean per-group weight of this epoch's observed load
  /// (epoch_weights_) under \p partition — the projected lane imbalance
  /// the re-draw is trying to shrink.
  [[nodiscard]] double weightImbalance(
      const cellular::CellGroupPartition& partition) {
    group_weight_.assign(static_cast<std::size_t>(partition.groups()), 0.0);
    for (std::size_t i = 0; i < epoch_weights_.size(); ++i) {
      group_weight_[static_cast<std::size_t>(
          partition.groupOf(static_cast<CellId>(i)))] += epoch_weights_[i];
    }
    double total = 0.0;
    double peak = 0.0;
    for (const double w : group_weight_) {
      total += w;
      peak = std::max(peak, w);
    }
    if (total <= 0.0) return 1.0;
    return peak * static_cast<double>(group_weight_.size()) / total;
  }

  /// Integrates a group's occupied-BU time up to \p now (call before any
  /// change to that group's ledgers). Touched only by the lane that owns
  /// the group or by the single-threaded barrier drain.
  void noteOccupancy(GroupLane& lane, double now) {
    const double from = std::max(lane.last_change_s, cfg_.warmup_s);
    if (now > from) {
      lane.busy_bu_seconds +=
          static_cast<double>(lane.occupied_bu) * (now - from);
    }
    lane.last_change_s = now;
  }

  [[nodiscard]] bool counted(double now) const noexcept {
    return now >= cfg_.warmup_s;
  }

  /// Attributes one committed event to its cell for the epoch load counts.
  /// Concurrency: a cell belongs to exactly one lane (and one barrier
  /// drain), so concurrent writers always hit disjoint elements.
  void noteCellLoad(CellId cell) noexcept {
    if (!cell_events_.empty()) {
      ++cell_events_[static_cast<std::size_t>(cell)];
    }
  }

  /// Counts rationales cut at ReasonText's inline capacity, so explain-mode
  /// runs can surface the loss (the CLI warns once per run) instead of
  /// silently dropping tails. Respects the warmup gate like every other
  /// counter — only measured decisions are reported. Deterministic:
  /// decisions do not depend on it.
  static void noteRationale(Metrics& into,
                            const cellular::AdmissionDecision& decision,
                            bool count) noexcept {
    if (count && decision.rationale.truncated()) {
      ++into.truncated_rationales;
    }
  }

  /// Folds one lane's private slice into \p out — every counter a lane may
  /// touch, in group order so the double accumulation is reproducible.
  static void mergeLaneInto(Metrics& out, const GroupLane& lane) {
    const Metrics& p = lane.partial;
    out.new_requests += p.new_requests;
    out.new_accepted += p.new_accepted;
    out.new_blocked += p.new_blocked;
    out.handoff_requests += p.handoff_requests;
    out.handoff_accepted += p.handoff_accepted;
    out.handoff_dropped += p.handoff_dropped;
    out.completed += p.completed;
    for (std::size_t i = 0; i < p.class_requests.size(); ++i) {
      out.class_requests[i] += p.class_requests[i];
      out.class_accepted[i] += p.class_accepted[i];
    }
    out.truncated_rationales += p.truncated_rationales;
    out.reservations_posted += p.reservations_posted;
    out.reservations_admitted += p.reservations_admitted;
    out.reservations_dropped += p.reservations_dropped;
    out.busy_bu_seconds += lane.busy_bu_seconds;
    out.engine_events += lane.events;
  }

  /// The run's full Metrics at this instant, folded exactly like the final
  /// batch fold (same order, same operations) — so the last streaming
  /// window's cumulative is bit-identical to the batch return value, and
  /// this IS the batch return value at end of run. Non-destructive: lanes
  /// keep accumulating afterwards.
  [[nodiscard]] Metrics snapshotMetrics() const {
    Metrics out = metrics_;
    out.lane_events.reserve(lanes_.size());
    out.lane_commit_s.reserve(lanes_.size());
    double last_change_s = 0.0;
    for (const GroupLane& lane : lanes_) {
      mergeLaneInto(out, lane);
      out.lane_events.push_back(lane.events + lane.barrier_events);
      out.lane_commit_s.push_back(lane.wall_s);
      last_change_s = std::max(last_change_s, lane.last_change_s);
    }
    out.observed_span_s = std::max(0.0, last_change_s - cfg_.warmup_s);
    out.total_capacity_bu = network_.totalCapacityBu();
    for (const std::uint64_t n : local_events_) out.engine_events += n;
    out.peak_concurrent_calls = call_pool_.stats().high_water;
    return out;
  }

  [[nodiscard]] EngineWindowStats windowStats() const {
    const auto ps = call_pool_.stats();
    EngineWindowStats s;
    s.pool_capacity = ps.capacity;
    s.pool_live = ps.live;
    s.pool_high_water = ps.high_water;
    s.pool_acquired = ps.acquired;
    s.pool_released = ps.released;
    s.pool_grow_events = ps.grow_events;
    s.ring_capacity = rings_.empty() ? 0 : rings_.front().capacity();
    for (const auto& r : rings_) {
      s.ring_high_water =
          std::max(s.ring_high_water,
                   static_cast<std::uint64_t>(r.highWater()));
    }
    s.ring_spills = ring_spills_total_;
    s.mutations_applied = metrics_.mutations_applied;
    return s;
  }

  // ------------------------------------------------------------- emission

  void maybeEmit(double t1) {
    if (!hooks_.on_window || !std::isfinite(t1)) return;
    const double every = hooks_.metrics_every_s;
    if (every > 0.0 && t1 < next_emit_s_) return;
    emitWindow(t1, /*final_window=*/false);
    if (every > 0.0) {
      next_emit_s_ = (std::floor(t1 / every) + 1.0) * every;
    }
  }

  void emitWindow(double t1, bool final_window) {
    WindowSnapshot w;
    w.index = emit_index_++;
    w.t0 = last_emit_t_;
    w.t1 = t1;
    w.final_window = final_window;
    w.cumulative = snapshotMetrics();
    w.stats = windowStats();
    last_emit_t_ = t1;
    hooks_.on_window(w);
  }

  // ---------------------------------------------------------------- prepare

  /// Materializes every arrival whose admission decision falls inside the
  /// window: acquire a pool slot, build the call — spawn cell, GPS
  /// tracking through the observation window, the admission-time
  /// snapshot — in parallel over the shard pool (each call only touches
  /// its own slot and RNG stream), then schedule the decision events
  /// serially in call order. Lazy-by-window is bit-identical to the old
  /// everything-up-front preparation: the arrival stream is consumed in
  /// the same order, and every other draw comes from the call's own
  /// stream, which does not care when it runs. Decision instants are
  /// >= every previously drained barrier, so the queue pushes are always
  /// monotone-safe.
  void materializeWindow(double window_end) {
    const double track = cfg_.scenario.tracking_window_s;
    batch_slots_.clear();
    batch_times_.clear();
    while (const auto t = arrivals_.peek()) {
      if (!(*t + track < window_end)) break;
      arrivals_.pop();
      const CallId id = ++next_call_id_;
      const std::uint32_t slot = call_pool_.acquire(id, cfg_.scenario.turn);
      call_pool_.at(slot).slot = slot;
      batch_slots_.push_back(slot);
      batch_times_.push_back(*t);
    }
    if (batch_slots_.empty()) return;

    pool_.run([&](int shard) {
      for (std::size_t i = static_cast<std::size_t>(shard);
           i < batch_slots_.size();
           i += static_cast<std::size_t>(shard_count_)) {
        prepareCall(shard, batch_slots_[i], batch_times_[i]);
      }
    });

    for (std::size_t i = 0; i < batch_slots_.size(); ++i) {
      const std::uint32_t slot = batch_slots_[i];
      const CallState& c = call_pool_.at(slot);
      queues_[static_cast<std::size_t>(shardOf(c.request.target_cell))].push(
          batch_times_[i] + track,
          ShardEvent{ShardEventKind::Decision, c.request.call, 0, slot});
    }
  }

  /// Where a fresh request spawns: the legacy uniform pick, or — as soon
  /// as any cell carries an arrival_scale (override or mutation) — a
  /// weighted draw over the per-cell CDF (hotspot modelling). The two
  /// paths consume the call's RNG differently, so the weighted draw only
  /// engages when a scale actually differs from 1 — unscaled configs keep
  /// their exact historical draw sequence.
  [[nodiscard]] CellId drawSpawnCell(Rng& rng) {
    if (spawn_cdf_.empty()) {
      std::uniform_int_distribution<std::size_t> cell_pick{
          0, network_.cellCount() - 1};
      return static_cast<CellId>(cell_pick(rng));
    }
    const double u = sampleUniform(rng, 0.0, spawn_cdf_.back());
    const auto it = std::upper_bound(spawn_cdf_.begin(), spawn_cdf_.end(), u);
    const std::size_t i = std::min(
        static_cast<std::size_t>(it - spawn_cdf_.begin()),
        spawn_cdf_.size() - 1);
    return static_cast<CellId>(i);
  }

  /// Builds one call in its slot: spawn draw, tracking walk, snapshot.
  /// Uses only the call's own stream plus \p shard's scratch estimator —
  /// safe to run for many calls concurrently, and allocation-free in
  /// steady state.
  void prepareCall(int shard, std::uint32_t slot, double arrival_s) {
    CallState& c = call_pool_.at(slot);
    const CallId id = call_pool_.occupantOf(slot);
    c.rng.seed(streamSeed(cfg_.seed,
                          kCallStreamBase + static_cast<std::uint64_t>(id)));

    const CellId spawn_cell = drawSpawnCell(c.rng);
    const bool mixed = !cell_mix_.empty() &&
                       cell_mix_[static_cast<std::size_t>(spawn_cell)];
    RequestPlan plan;
    if (mixed) {
      // Hotspot cells skew their own service mix; everything else about
      // the population stays the scenario's.
      ScenarioParams local = cfg_.scenario;
      local.mix = *cell_mix_[static_cast<std::size_t>(spawn_cell)];
      plan = drawRequest(local, network_.cell(spawn_cell).center, spawn_cell,
                         c.rng);
    } else {
      plan = drawRequest(cfg_.scenario, network_.cell(spawn_cell).center,
                         spawn_cell, c.rng);
    }
    c.state = plan.initial;

    const double window = cfg_.scenario.tracking_window_s;
    cellular::UserSnapshot snapshot;
    CellId target = plan.target_cell;
    if (window > 0.0) {
      // Collect fixes while the user moves; the estimator reconstructs
      // (S, A, D) exactly as a GPS-fed controller would.
      const mobility::GpsSampler sampler{
          cfg_.scenario.gps_error_m.value_or(0.0)};
      const double period = cfg_.scenario.gps_fix_period_s;
      const int fix_count = static_cast<int>(window / period) + 1;
      mobility::GpsEstimator& estimator =
          scratch_est_[static_cast<std::size_t>(shard)];
      estimator.reset();
      estimator.addFix(sampler.sample(arrival_s, c.state.position_km, c.rng));
      for (int i = 1; i < fix_count; ++i) {
        c.model.step(c.state, period, c.rng);
        estimator.addFix(
            sampler.sample(arrival_s + i * period, c.state.position_km, c.rng));
      }
      // The user may have wandered into a neighbouring cell while tracked.
      target = network_.cellAt(c.state.position_km).value_or(target);
      snapshot = estimator.snapshot(network_.cell(target).center);
      snapshot.position = c.state.position_km;  // ledger-grade position
    } else {
      snapshot =
          mobility::snapshotFromTruth(c.state, network_.cell(target).center);
    }

    CallRequest req;
    req.call = id;
    req.user = id;
    req.service = plan.service;
    req.demand_bu = cellular::profileFor(plan.service).demand_bu;
    req.snapshot = snapshot;
    req.target_cell = target;
    req.is_handoff = false;
    c.request = req;

    // Snapshot-only policy work (FACS: the whole FLC1 inference) runs here,
    // in parallel, instead of inside the serialized commit phase. The
    // snapshot cannot change between now and the decision instant (pending
    // calls do not move), so the value stays coherent until consumed.
    // Called from shard workers: the controller contract requires
    // precompute() to be thread-safe and state-free.
    c.predicted = controller_->precompute(req.snapshot);
  }

  // ------------------------------------------------------------ local phase

  /// Each shard drains its queue up to the window end. Mobility steps run
  /// here (call-local: per-call RNG and state); everything that needs the
  /// shared ledgers/controller becomes a ring-mailbox entry for the commit
  /// phase (overflow spills to a counted vector — backpressure is visible,
  /// not fatal). Stale events (recycled slots, superseded epochs, finished
  /// calls) die here.
  void runLocalPhase(double window_end) {
    pool_.run([&](int shard) {
      Queue& q = queues_[static_cast<std::size_t>(shard)];
      auto& ring = rings_[static_cast<std::size_t>(shard)];
      auto& spill = spills_[static_cast<std::size_t>(shard)];
      std::uint64_t& events = local_events_[static_cast<std::size_t>(shard)];
      const auto emit = [&](const CommitEntry& e) {
        if (!ring.tryPush(e)) spill.push_back(e);
      };
      while (const auto entry = q.popBefore(window_end)) {
        const ShardEvent& ev = entry->payload;
        CallState* cp = liveCall(ev);
        if (!cp) continue;  // slot recycled: a previous lifetime's event
        CallState& c = *cp;
        switch (ev.kind) {
          case ShardEventKind::Decision:
            if (c.phase != CallPhase::Pending) break;
            emit(CommitEntry{entry->time_s, ev});
            break;
          case ShardEventKind::End:
            if (c.phase != CallPhase::Active || ev.epoch != c.epoch) break;
            emit(CommitEntry{entry->time_s, ev});
            break;
          case ShardEventKind::Move: {
            if (c.phase != CallPhase::Active || ev.epoch != c.epoch) break;
            c.model.step(c.state, cfg_.mobility_update_s, c.rng);
            const auto now_cell = network_.cellAt(c.state.position_km);
            if (now_cell && *now_cell == c.request.target_cell) {
              // Still home: the step stays entirely shard-local. Only these
              // count here — crossings count when their commit executes.
              ++events;
              q.push(entry->time_s + cfg_.mobility_update_s, ev);
            } else {
              // Crossed a border or left coverage: cross-cell, so the
              // barrier decides (handoff admission / departure). The step
              // changed the snapshot the handoff decision will see, so the
              // prepared CV is stale — re-run the prediction here, in
              // parallel, against the same snapshot commitCrossing() will
              // reconstruct (a pure function of the unchanged motion state
              // and cell centre, so the bits match).
              if (now_cell) {
                c.predicted =
                    controller_->precompute(mobility::snapshotFromTruth(
                        c.state, network_.cell(*now_cell).center));
              }
              emit(CommitEntry{entry->time_s, ev});
            }
            break;
          }
        }
      }
    });
  }

  // ----------------------------------------------------------- commit phase

  /// Serial routing step: every mailbox entry goes to the lane of the
  /// call's current cell. All of a call's events of one window route to
  /// one lane (pending calls do not move, and active calls change cells
  /// only when that same lane — or the barrier — commits the crossing),
  /// so lanes touch disjoint call and ledger state by construction. Ring
  /// first, then the spill vector — together the shard's push order.
  void routeCommits() {
    const auto route = [&](const CommitEntry& e) {
      const CellId cell = call_pool_.at(e.event.slot).request.target_cell;
      lanes_[static_cast<std::size_t>(laneOf(cell))].queue.push(e);
    };
    for (std::size_t s = 0; s < rings_.size(); ++s) {
      auto& ring = rings_[s];
      while (auto e = ring.tryPop()) route(*e);
      auto& spill = spills_[s];
      ring_spills_total_ += spill.size();
      for (const CommitEntry& e : spill) route(e);
      spill.clear();
    }
  }

  /// Replays every lane to quiescence. One lane runs inline (it IS the
  /// serialized commit phase of the pre-grouped engine); several fan out
  /// over the shard pool, each worker walking the lanes it owns.
  void runLanes(double window_end) {
    const int lane_count = partition_.groups();
    if (lane_count == 1) {
      runLane(0, window_end);
      return;
    }
    pool_.run([&](int shard) {
      for (int g = shard; g < lane_count; g += shard_count_) {
        runLane(g, window_end);
      }
    });
  }

  /// Drains one lane's queue — plus any follow-up events commits push back
  /// inside the window — in canonical (time, kind, call) order, mutating
  /// only this group's ledgers and the lane's private slice.
  void runLane(int g, double window_end) {
    GroupLane& lane = lanes_[static_cast<std::size_t>(g)];
    const auto lane_t0 = std::chrono::steady_clock::now();
    while (!lane.queue.empty()) {
      const CommitEntry e = lane.queue.top();
      lane.queue.pop();
      const double now = e.time_s;
      CallState* cp = liveCall(e.event);
      if (!cp) continue;
      CallState& c = *cp;
      // Only events that execute count toward engine_events; stale entries
      // superseded by an in-window handoff or drop are bookkeeping noise.
      switch (e.event.kind) {
        case ShardEventKind::Decision:
          if (c.phase == CallPhase::Pending) {
            ++lane.events;
            noteCellLoad(c.request.target_cell);
            commitDecision(lane, c, now, window_end);
          }
          break;
        case ShardEventKind::End:
          if (c.phase == CallPhase::Active && e.event.epoch == c.epoch) {
            ++lane.events;
            noteCellLoad(c.request.target_cell);
            commitEnd(lane, c, now);
          }
          break;
        case ShardEventKind::Move:
          if (c.phase == CallPhase::Active && e.event.epoch == c.epoch) {
            ++lane.events;
            noteCellLoad(c.request.target_cell);
            commitCrossing(g, lane, c, now, window_end);
          }
          break;
      }
    }
    lane.wall_s += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - lane_t0)
                       .count();
  }

  /// Schedules an admitted call's departure: into the lane's own queue when
  /// it still falls inside this window (the call's cell stays in this
  /// group), else deferred for the barrier to push into its owner shard's
  /// queue.
  void scheduleEnd(GroupLane& lane, const CallState& c, CallId id,
                   double window_end) {
    const ShardEvent ev{ShardEventKind::End, id, c.epoch, c.slot};
    if (c.end_time_s < window_end) {
      lane.queue.push(CommitEntry{c.end_time_s, ev});
    } else {
      lane.deferred.push_back(
          DeferredEvent{c.end_time_s, c.request.target_cell, ev});
    }
  }

  /// First mobility step after \p now: the next multiple of the update
  /// period strictly ahead of it (always >= window_end, i.e. next window).
  void scheduleFirstMove(GroupLane& lane, const CallState& c, CallId id,
                         double now) {
    if (!cfg_.enable_handoffs) return;
    const double period = cfg_.mobility_update_s;
    const double next = (std::floor(now / period) + 1.0) * period;
    lane.deferred.push_back(DeferredEvent{
        next, c.request.target_cell,
        ShardEvent{ShardEventKind::Move, id, c.epoch, c.slot}});
  }

  /// Marks a lane-context call finished: the slot joins the lane's freed
  /// list and recycles at the barrier.
  void finishInLane(GroupLane& lane, CallState& c) {
    c.phase = CallPhase::Done;
    lane.freed.push_back(c.slot);
  }

  void commitDecision(GroupLane& lane, CallState& c, double now,
                      double window_end) {
    if (c.phase != CallPhase::Pending) return;
    const CallRequest& req = c.request;
    cellular::BaseStation& station = network_.station(req.target_cell);
    // The prepare phase already ran the snapshot-only stage; decide() now
    // executes only the ledger-dependent stage (FACS: FLC2).
    const AdmissionContext ctx{station, now, cfg_.explain, c.predicted};

    const bool count = counted(now);
    if (count) {
      ++lane.partial.new_requests;
      ++lane.partial.class_requests[static_cast<std::size_t>(req.service)];
    }

    // A cell under an outage mutation admits nothing; the policy is not
    // even consulted (there is no station to decide for).
    bool admit = false;
    if (!isDown(req.target_cell)) {
      const cellular::AdmissionDecision decision =
          controller_->decide(req, ctx);
      noteRationale(lane.partial, decision, count);
      // Defence in depth: an accept that does not fit would corrupt the
      // ledger, so the simulator re-checks the invariant the policy
      // promised.
      admit = decision.accept && station.canFit(req.demand_bu);
    }

    if (!admit) {
      if (count) ++lane.partial.new_blocked;
      controller_->onRejected(req, ctx);
      finishInLane(lane, c);
      return;
    }

    noteOccupancy(lane, now);
    station.allocate(req.call, req.demand_bu,
                     cellular::profileFor(req.service).real_time);
    lane.occupied_bu += req.demand_bu;
    if (count) {
      ++lane.partial.new_accepted;
      ++lane.partial.class_accepted[static_cast<std::size_t>(req.service)];
    }
    controller_->onAdmitted(req, ctx);

    c.phase = CallPhase::Active;
    c.end_time_s = now + sampleExponential(
                             c.rng,
                             cellular::profileFor(req.service).mean_holding_s);
    scheduleEnd(lane, c, req.call, window_end);
    scheduleFirstMove(lane, c, req.call, now);
  }

  void commitEnd(GroupLane& lane, CallState& c, double now) {
    cellular::BaseStation& station = network_.station(c.request.target_cell);
    noteOccupancy(lane, now);
    station.release(c.request.call);
    lane.occupied_bu -= c.request.demand_bu;
    if (counted(now)) ++lane.partial.completed;
    controller_->onReleased(c.request, AdmissionContext{station, now});
    finishInLane(lane, c);
  }

  /// A mobility step detected the call outside its cell: hand it over
  /// in-lane when the new cell shares this group, account a coverage
  /// departure, or — across a group border — release the source half and
  /// post a Reservation for the barrier to validate (the inter-BS
  /// message).
  void commitCrossing(int g, GroupLane& lane, CallState& c, double now,
                      double window_end) {
    const auto new_cell = network_.cellAt(c.state.position_km);
    if (!new_cell) {
      // Left coverage entirely: account as a completed departure.
      commitEnd(lane, c, now);
      return;
    }

    if (laneOf(*new_cell) != g) {
      // Cross-group handoff. The source half — the call leaving this
      // group's cell — commits here, at the crossing instant; the claim on
      // the target cell travels to its group's mailbox. Bumping the epoch
      // supersedes every queued event copy while the claim is in flight,
      // so nothing can touch the call before the barrier resolves it.
      cellular::BaseStation& old_station =
          network_.station(c.request.target_cell);
      noteOccupancy(lane, now);
      old_station.release(c.request.call);
      lane.occupied_bu -= c.request.demand_bu;
      ++c.epoch;
      lane.outgoing.push_back(Reservation{now, c.request.call,
                                          c.request.target_cell, *new_cell,
                                          c.request.demand_bu, counted(now),
                                          c.slot});
      return;
    }

    cellular::BaseStation& old_station =
        network_.station(c.request.target_cell);
    cellular::BaseStation& new_station = network_.station(*new_cell);

    CallRequest req = c.request;
    req.is_handoff = true;
    req.target_cell = *new_cell;
    req.snapshot =
        mobility::snapshotFromTruth(c.state, network_.cell(*new_cell).center);

    const bool count = counted(now);
    if (count) ++lane.partial.handoff_requests;
    // c.predicted was refreshed by the local phase when this crossing was
    // detected, from the identical snapshot req now carries.
    const AdmissionContext ctx{new_station, now, cfg_.explain, c.predicted};
    bool admit = false;
    if (!isDown(*new_cell)) {
      const cellular::AdmissionDecision decision =
          controller_->decide(req, ctx);
      noteRationale(lane.partial, decision, count);
      admit = decision.accept && new_station.canFit(req.demand_bu);
    }

    noteOccupancy(lane, now);
    old_station.release(req.call);
    lane.occupied_bu -= req.demand_bu;
    if (admit) {
      new_station.allocate(req.call, req.demand_bu,
                           cellular::profileFor(req.service).real_time);
      lane.occupied_bu += req.demand_bu;
      if (count) ++lane.partial.handoff_accepted;
      controller_->onAdmitted(req, ctx);  // refreshes SCC kinematics too
      c.request = req;
      // The call changed owner: supersede every event copy still queued
      // under the old epoch, then reschedule its departure and next step
      // with the new one.
      ++c.epoch;
      scheduleEnd(lane, c, req.call, window_end);
      lane.deferred.push_back(DeferredEvent{
          now + cfg_.mobility_update_s, *new_cell,
          ShardEvent{ShardEventKind::Move, req.call, c.epoch, c.slot}});
    } else {
      if (count) ++lane.partial.handoff_dropped;
      controller_->onRejected(req, ctx);
      controller_->onReleased(c.request, AdmissionContext{old_station, now});
      finishInLane(lane, c);  // pending End/Move copies die at pop
    }
  }

  // --------------------------------------------------------------- barrier

  /// The tick-window barrier, after every lane has quiesced: cross-group
  /// reservations are delivered to their target groups' mailboxes and
  /// drained PER TARGET GROUP, concurrently — each drain validates its
  /// claims in canonical (time, call) order against ledgers and call state
  /// only its own group owns. The one cross-group touch (the drop path's
  /// source-cell controller release) is deferred into per-lane runs that a
  /// tree-structured combining step merges in O(log groups) rounds and the
  /// barrier root replays serially; everything else a drain cannot do
  /// concurrently (shard-queue pushes, pool recycling) rides the existing
  /// deferred/freed machinery. Then the lanes' deferred next-window events
  /// are flushed into the shard queues (serial: queues are shared).
  void drainBarrier(double window_end) {
    bool any = false;
    for (GroupLane& lane : lanes_) {
      for (const Reservation& r : lane.outgoing) {
        mailboxes_[static_cast<std::size_t>(laneOf(r.to_cell))].post(r);
        any = true;
      }
      lane.outgoing.clear();
    }
    if (any) drainMailboxes(window_end);
    // GroupLocal policies drain their own cross-group residue now —
    // unconditionally: an in-lane commit whose write footprint crosses a
    // group boundary defers deltas even when no call crossed (no
    // reservation posted).
    policyBarrier(window_end);
    for (GroupLane& lane : lanes_) {
      for (const DeferredEvent& d : lane.deferred) {
        queues_[static_cast<std::size_t>(shardOf(d.cell))].push(d.time_s,
                                                                d.event);
      }
      lane.deferred.clear();
    }
  }

  /// Lets a GroupLocal policy apply its deferred cross-group writes (and
  /// re-home migrated records) in barrier context, folding what it drained
  /// into the run's metrics. A no-op at one lane: the single lane IS the
  /// serialized commit and policies never defer there.
  void policyBarrier(double now_s) {
    if (partition_.groups() <= 1) return;
    const cellular::BarrierDrainStats stats =
        controller_->onCommitBarrier(now_s);
    metrics_.demand_deltas += stats.deltas_applied;
    metrics_.shadow_migrations += stats.shadows_migrated;
  }

  /// Fans the reservation drain out over the shard pool, one worker per
  /// target group (ledger-disjoint by construction), then combines and
  /// replays the deferred drop-path releases.
  void drainMailboxes(double window_end) {
    const int lane_count = partition_.groups();
    const auto drainOne = [&](int g) {
      auto& mailbox = mailboxes_[static_cast<std::size_t>(g)];
      if (mailbox.empty()) return;
      GroupLane& lane = lanes_[static_cast<std::size_t>(g)];
      const auto t0 = std::chrono::steady_clock::now();
      for (const Reservation& r : mailbox.drain()) {
        commitReservation(lane, r, window_end);
      }
      lane.wall_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    };
    if (lane_count == 1) {
      drainOne(0);
    } else {
      pool_.run([&](int shard) {
        for (int g = shard; g < lane_count; g += shard_count_) {
          drainOne(g);
        }
      });
    }
    combineAndRunReleases();
  }

  /// Tree-structured combining for the deferred drop-path releases (the
  /// Yu et al. collective-barrier shape): log2(groups) pairwise merge
  /// rounds fold every lane's (already canonically ordered) run into lane
  /// 0, then the root replays the combined run serially in global
  /// (time, call) order — the only stage allowed to touch foreign groups'
  /// controller state.
  void combineAndRunReleases() {
    const int lane_count = partition_.groups();
    bool any = false;
    for (const GroupLane& lane : lanes_) {
      if (!lane.releases.empty()) {
        any = true;
        break;
      }
    }
    if (!any) return;
    for (int step = 1; step < lane_count; step *= 2) {
      const int stride = 2 * step;
      // More than one pair this round: merge the pairs concurrently (each
      // touches only its own two lanes).
      if (lane_count > stride) {
        pool_.run([&](int shard) {
          for (int g = shard * stride; g + step < lane_count;
               g += shard_count_ * stride) {
            mergeCombine(lanes_[static_cast<std::size_t>(g)].releases,
                         lanes_[static_cast<std::size_t>(g + step)].releases,
                         DeferredReleaseEarlier{});
          }
        });
      } else {
        mergeCombine(lanes_[0].releases,
                     lanes_[static_cast<std::size_t>(step)].releases,
                     DeferredReleaseEarlier{});
      }
    }
    for (const DeferredRelease& d : lanes_[0].releases) {
      controller_->onReleased(
          d.request,
          AdmissionContext{network_.station(d.from_cell), d.time_s});
    }
    lanes_[0].releases.clear();
  }

  /// Recycles the slots of every call the lanes finished this window.
  /// Single-threaded and in lane order, so the freelist (and therefore
  /// slot reuse) is deterministic at any shard count.
  void releaseFreed() {
    for (GroupLane& lane : lanes_) {
      for (const std::uint32_t slot : lane.freed) {
        call_pool_.release(slot);
      }
      lane.freed.clear();
    }
  }

  /// Resolves one inter-group bandwidth claim at the barrier. The grant is
  /// decided by the policy plus the hard ledger, exactly like an in-lane
  /// handoff — but against the target group's end-of-window state, which
  /// is the documented visibility difference of commit_groups > 1: the
  /// target lane's own events of this window committed first, and the
  /// granted bandwidth occupies the new cell from the barrier instant.
  ///
  /// Runs concurrently, one drain per target group: everything it touches
  /// is owned by \p lane's group (the target station and ledger slice, the
  /// call — a call crosses at most one border per window, so exactly one
  /// drain sees it, and its epoch bump keeps every other event copy
  /// stale) or a lane-private buffer (counters in lane.partial, queue
  /// pushes in lane.deferred, slot recycling in lane.freed, the drop
  /// path's foreign-station release in lane.releases).
  void commitReservation(GroupLane& lane, const Reservation& r,
                         double window_end) {
    CallState& c = call_pool_.at(r.slot);
    cellular::BaseStation& new_station = network_.station(r.to_cell);

    // The reservation is the authoritative inter-BS message: the handoff
    // request presented to the policy is rebuilt from its fields (the
    // demand claimed, the border crossed) plus the call's motion truth.
    CallRequest req = c.request;
    req.is_handoff = true;
    req.target_cell = r.to_cell;
    req.demand_bu = r.demand_bu;
    req.snapshot =
        mobility::snapshotFromTruth(c.state, network_.cell(r.to_cell).center);

    const bool count = r.counted;
    ++lane.barrier_events;
    noteCellLoad(r.to_cell);
    if (count) {
      ++lane.partial.handoff_requests;
      ++lane.partial.reservations_posted;
    }
    // c.predicted was refreshed when the crossing was detected, from this
    // same snapshot.
    const AdmissionContext ctx{new_station, r.time_s, cfg_.explain,
                               c.predicted};
    bool admit = false;
    if (!isDown(r.to_cell)) {
      const cellular::AdmissionDecision decision =
          controller_->decide(req, ctx);
      noteRationale(lane.partial, decision, count);
      admit = decision.accept && new_station.canFit(req.demand_bu);
    }

    if (!admit) {
      if (count) {
        ++lane.partial.handoff_dropped;
        ++lane.partial.reservations_dropped;
      }
      controller_->onRejected(req, ctx);
      // The source-cell release is the drop path's one foreign-group
      // touch: deferred for the combining barrier to replay serially.
      lane.releases.push_back(
          DeferredRelease{r.time_s, r.call, c.request, r.from_cell});
      c.phase = CallPhase::Done;
      lane.freed.push_back(r.slot);
      return;
    }

    noteOccupancy(lane, window_end);
    new_station.allocate(req.call, req.demand_bu,
                         cellular::profileFor(req.service).real_time);
    lane.occupied_bu += req.demand_bu;
    if (count) {
      ++lane.partial.handoff_accepted;
      ++lane.partial.reservations_admitted;
    }
    controller_->onAdmitted(req, ctx);
    c.request = req;  // epoch was already bumped when the claim was posted

    if (c.end_time_s < window_end) {
      // The departure instant passed while the claim was in flight: settle
      // it here (the call held no bandwidth in the new cell for measurable
      // time — the claim existed only to decide dropped vs handed over).
      noteOccupancy(lane, window_end);
      new_station.release(req.call);
      lane.occupied_bu -= req.demand_bu;
      if (counted(c.end_time_s)) ++lane.partial.completed;
      controller_->onReleased(c.request,
                              AdmissionContext{new_station, window_end});
      c.phase = CallPhase::Done;
      lane.freed.push_back(r.slot);
      return;
    }
    lane.deferred.push_back(DeferredEvent{
        c.end_time_s, r.to_cell,
        ShardEvent{ShardEventKind::End, r.call, c.epoch, r.slot}});
    lane.deferred.push_back(DeferredEvent{
        r.time_s + cfg_.mobility_update_s, r.to_cell,
        ShardEvent{ShardEventKind::Move, r.call, c.epoch, r.slot}});
  }

  // ------------------------------------------------------------- mutations

  /// Applies one scheduled workload change. Runs between windows (the
  /// barrier context: every lane quiesced, no claim in flight), so it may
  /// touch any group's ledger and the pool directly.
  void applyMutation(const serve::ScenarioMutation& m) {
    switch (m.op) {
      case serve::MutationOp::ArrivalScale:
        if (m.cell) {
          ensureSpawnWeights();
          spawn_weight_[static_cast<std::size_t>(*m.cell)] = m.scale;
          rebuildSpawnCdf();
        } else {
          arrivals_.rescale(m.scale, m.at_s);
        }
        break;
      case serve::MutationOp::Outage:
        down_[static_cast<std::size_t>(*m.cell)] = 1;
        forceDropCell(*m.cell, m.at_s);
        // The forced releases ran in barrier context but may have deferred
        // cross-group policy writes; drain them before the next window's
        // lanes (or a following epoch's migration) can observe the stores.
        policyBarrier(m.at_s);
        break;
      case serve::MutationOp::Restore:
        down_[static_cast<std::size_t>(*m.cell)] = 0;
        break;
      case serve::MutationOp::Mix:
        if (m.cell) {
          if (cell_mix_.empty()) cell_mix_.resize(network_.cellCount());
          cell_mix_[static_cast<std::size_t>(*m.cell)] = *m.mix;
        } else {
          cfg_.scenario.mix = *m.mix;
        }
        break;
    }
  }

  /// Cell outage: every call the cell carries is force-dropped at the
  /// outage instant, in call-id order (deterministic at any shard count —
  /// pool slot order is a freelist artifact, call ids are not). Pending
  /// calls targeting the cell stay pending; their decisions will be denied
  /// while the cell is down.
  void forceDropCell(CellId cell, double at_s) {
    victims_.clear();
    call_pool_.forEachLive(
        [&](std::uint32_t slot, CallId /*id*/, CallState& c) {
          if (c.phase == CallPhase::Active && c.request.target_cell == cell) {
            victims_.push_back(slot);
          }
        });
    if (victims_.empty()) return;
    std::sort(victims_.begin(), victims_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return call_pool_.occupantOf(a) < call_pool_.occupantOf(b);
              });
    GroupLane& lane = lanes_[static_cast<std::size_t>(laneOf(cell))];
    cellular::BaseStation& station = network_.station(cell);
    for (const std::uint32_t slot : victims_) {
      CallState& c = call_pool_.at(slot);
      noteOccupancy(lane, at_s);
      station.release(c.request.call);
      lane.occupied_bu -= c.request.demand_bu;
      if (counted(at_s)) ++metrics_.outage_forced_drops;
      controller_->onReleased(c.request, AdmissionContext{station, at_s});
      c.phase = CallPhase::Done;
      call_pool_.release(slot);
    }
  }

  SimulationConfig cfg_;
  ServiceHooks hooks_;
  HexNetwork network_;
  std::unique_ptr<cellular::AdmissionController> controller_;
  cellular::CellGroupPartition partition_;
  int shard_count_;
  ShardPool pool_;

  std::vector<Queue> queues_;  ///< One per shard.
  /// Per-shard outbox: a fixed ring plus a counted spill vector for
  /// overflow. Together they preserve the shard's push order.
  std::vector<serve::RingBuffer<CommitEntry>> rings_;
  std::vector<std::vector<CommitEntry>> spills_;
  std::vector<std::uint64_t> local_events_;   ///< One per shard.
  std::vector<GroupLane> lanes_;              ///< One per group.
  std::vector<ReservationMailbox> mailboxes_; ///< One per group.

  /// Call storage proportional to CONCURRENT calls: slots recycle the
  /// moment a call finishes (the batch engine kept every call for the
  /// whole run — unbounded growth serve mode cannot live with).
  serve::CallPool<CallState> call_pool_;
  ArrivalSource arrivals_;
  CallId next_call_id_ = 0;

  /// Window-materialization scratch (reused every window — no steady-state
  /// allocation once grown to the largest batch).
  std::vector<std::uint32_t> batch_slots_;
  std::vector<double> batch_times_;
  std::vector<std::uint32_t> victims_;
  /// Per-shard scratch GPS estimators (empty when tracking is off).
  std::vector<mobility::GpsEstimator> scratch_est_;

  /// Cells currently under an outage mutation (empty when the run has no
  /// outage/restore mutations at all — the common case pays nothing).
  std::vector<std::uint8_t> down_;

  /// Spawn-cell weighting (empty = legacy uniform draw) and per-cell mix
  /// overrides (empty = scenario mix everywhere), digested from
  /// cell_overrides and updated by mutations.
  std::vector<double> spawn_weight_;
  std::vector<double> spawn_cdf_;
  std::vector<std::optional<cellular::TrafficMix>> cell_mix_;

  /// Mutation application order (indices into cfg_.mutations) and cursor.
  std::vector<std::size_t> mutation_order_;
  std::size_t next_mutation_ = 0;

  /// Epoch re-partitioning state (weighted partition only; empty/+inf when
  /// off): per-cell committed-event counts since the last epoch — the
  /// deterministic load proxy — the next epoch boundary, and a reusable
  /// weight buffer.
  std::vector<std::uint64_t> cell_events_;
  double next_epoch_s_ = std::numeric_limits<double>::infinity();
  std::vector<double> epoch_weights_;
  std::vector<double> group_weight_;  ///< weightImbalance() scratch.

  std::uint64_t ring_spills_total_ = 0;

  // Streaming emission state.
  double next_emit_s_ = 0.0;
  double last_emit_t_ = 0.0;
  std::uint64_t emit_index_ = 0;

  Metrics metrics_;
};

}  // namespace

void validateConfig(const SimulationConfig& cfg) {
  // Geometry first (mirrors HexNetwork's own checks, so a bad scenario —
  // in code or from a file — fails at validate time with config
  // vocabulary, not mid-construction).
  if (cfg.rings < 0 || cfg.rings > kMaxRings) {
    throw std::invalid_argument("rings must be in [0, " +
                                std::to_string(kMaxRings) + "]");
  }
  if (!(cfg.cell_radius_km > 0.0)) {
    throw std::invalid_argument("cell radius must be positive");
  }
  if (cfg.capacity_bu <= 0) {
    throw std::invalid_argument("capacity must be positive");
  }
  if (cfg.total_requests < 0) {
    throw std::invalid_argument("total_requests must be >= 0");
  }
  if (!(cfg.arrival_window_s > 0.0)) {
    throw std::invalid_argument("arrival window must be positive");
  }
  if (cfg.warmup_s < 0.0) {
    throw std::invalid_argument("warmup must be >= 0");
  }
  if (cfg.enable_handoffs && !(cfg.mobility_update_s > 0.0)) {
    throw std::invalid_argument("mobility update period must be positive");
  }
  if (cfg.shards < 1 || cfg.shards > kMaxShards) {
    throw std::invalid_argument("shards must be in [1, " +
                                std::to_string(kMaxShards) + "]");
  }
  if (cfg.commit_groups < 1 || cfg.commit_groups > kMaxShards) {
    throw std::invalid_argument("commit groups must be in [1, " +
                                std::to_string(kMaxShards) + "]");
  }
  if (!(cfg.repartition_every_s >= 0.0) ||
      !std::isfinite(cfg.repartition_every_s)) {
    throw std::invalid_argument(
        "repartition period must be finite and >= 0");
  }
  if (cfg.repartition_every_s > 0.0 &&
      cfg.partition != PartitionStrategy::Weighted) {
    throw std::invalid_argument(
        "repartition_every_s requires the weighted partition (contiguous "
        "boundaries never move)");
  }
  {
    // Mirror HexNetwork's override checks so a bad scenario fails at
    // validate time with config vocabulary, not mid-construction.
    const auto cells =
        static_cast<std::size_t>(cellular::hexDiskCellCount(cfg.rings));
    std::vector<bool> seen(cells, false);
    for (const CellOverride& o : cfg.cell_overrides) {
      if (static_cast<std::size_t>(o.cell) >= cells) {
        throw std::invalid_argument(
            "cell override for cell " + std::to_string(o.cell) +
            " outside the " + std::to_string(cells) + "-cell disk");
      }
      if (seen[o.cell]) {
        throw std::invalid_argument("duplicate cell override for cell " +
                                    std::to_string(o.cell));
      }
      if (o.emptyOverride()) {
        throw std::invalid_argument("cell override for cell " +
                                    std::to_string(o.cell) +
                                    " sets no field");
      }
      if (o.capacity_bu && *o.capacity_bu <= 0) {
        throw std::invalid_argument("cell capacity override for cell " +
                                    std::to_string(o.cell) +
                                    " must be positive");
      }
      if (o.arrival_scale &&
          (!std::isfinite(*o.arrival_scale) || !(*o.arrival_scale > 0.0))) {
        throw std::invalid_argument("arrival scale for cell " +
                                    std::to_string(o.cell) +
                                    " must be positive and finite");
      }
      seen[o.cell] = true;
    }
    for (std::size_t i = 0; i < cfg.mutations.size(); ++i) {
      serve::validateMutation(cfg.mutations[i], i, cells,
                              cfg.arrivals == ArrivalProcess::Poisson);
    }
  }
  validateScenario(cfg.scenario);
  // A mobility period too small for the horizon would never advance the
  // clock (t + period == t); the negated form also rejects NaN and inf.
  if (cfg.enable_handoffs &&
      !((cfg.arrival_window_s + cfg.scenario.tracking_window_s) /
            cfg.mobility_update_s <=
        kMaxMobilityTicks)) {
    throw std::invalid_argument(
        "(arrival window + tracking window) / mobility update period must "
        "be at most 1e8");
  }
}

Metrics runSimulation(const SimulationConfig& config,
                      const ControllerFactory& make_controller) {
  return runSimulation(config, make_controller, ServiceHooks{});
}

Metrics runSimulation(const SimulationConfig& config,
                      const ControllerFactory& make_controller,
                      const ServiceHooks& hooks) {
  validateConfig(config);
  if (!(hooks.metrics_every_s >= 0.0) ||
      !std::isfinite(hooks.metrics_every_s)) {
    throw std::invalid_argument("metrics period must be finite and >= 0");
  }
  if (!(hooks.serve_duration_s >= 0.0) ||
      !std::isfinite(hooks.serve_duration_s)) {
    throw std::invalid_argument("serve duration must be finite and >= 0");
  }
  if (hooks.serve_duration_s > 0.0) {
    if (config.arrivals != ArrivalProcess::Poisson) {
      throw std::invalid_argument(
          "serve duration requires Poisson arrivals (a uniform burst has "
          "no steady state to extend)");
    }
    if (config.total_requests <= 0) {
      throw std::invalid_argument(
          "serve duration requires total_requests > 0 (the arrival-rate "
          "numerator)");
    }
  }
  Engine engine{config, make_controller, hooks};
  return engine.execute();
}

}  // namespace facs::sim
