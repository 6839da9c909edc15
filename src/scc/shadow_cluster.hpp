#pragma once
/// \file shadow_cluster.hpp
/// The Shadow Cluster Concept (SCC) baseline, re-implemented from
/// D. A. Levine, I. F. Akyildiz, M. Naghshineh, "A Resource Estimation and
/// Call Admission Algorithm for Wireless Multimedia Networks Using the
/// Shadow Cluster Concept", IEEE/ACM ToN 5(1), 1997 — the comparison system
/// of the paper's Section 2 and Fig. 10.
///
/// Every active mobile exerts a probabilistic "shadow" over nearby cells:
/// for each future interval k the controller projects where the mobile will
/// be (from its last known position and velocity), spreads that prediction
/// over cells with a Gaussian kernel whose width grows with the horizon,
/// and discounts by the probability the call is still active. Base stations
/// sum these shadows into projected demand per interval and admit a new
/// call only if, with the caller's own tentative shadow cluster added,
/// projected demand stays within the survivability threshold everywhere in
/// the cluster for the whole horizon.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/network.hpp"
#include "mobility/model.hpp"

namespace facs::scc {

/// Tunables of the shadow-cluster algorithm.
struct SccConfig {
  /// Number of future intervals projected (the horizon is
  /// intervals * interval_s seconds).
  int intervals = 3;
  /// Interval length in seconds.
  double interval_s = 30.0;
  /// Survivability threshold: projected demand in every cluster cell must
  /// stay below threshold * capacity for the call to be admitted.
  double threshold = 1.0;
  /// Grid radius (hops) of a shadow cluster around its centre cell.
  int cluster_radius = 1;
  /// Base spatial spread of the position prediction (km); grows linearly
  /// with the projection interval index. Should be of the order of the
  /// cell radius — a mobile anywhere in a cell shadows that cell's BS, and
  /// mobiles near borders shadow the neighbour too (which is what makes
  /// the scheme's per-BS accumulation over-reserve, as in the original).
  double sigma_base_km = 8.0;
  double sigma_growth_km = 2.0;
  /// Mean call holding time used for the activity decay exp(-t / holding).
  double mean_holding_s = 180.0;
  /// Periodic exact rebuild of the incremental demand cache: after this
  /// many shadow updates (each admit, release, or handoff-refresh leg is
  /// one), every per-(cell, interval) accumulator is recomputed from the
  /// live shadows in canonical call order. Subtract-on-release leaves
  /// ~1e-12 BU of floating residue per churn cycle; the rebuild zeroes it,
  /// bounding the drift forever on long-lived runs. 0 disables. The
  /// amortized cost is O(tracked * cells * intervals / rebuild_every) per
  /// update — negligible at the default.
  int rebuild_every = 1'000'000;
  /// Deny calls whose predicted trajectory leaves network coverage within
  /// the horizon: their shadow cluster cannot be established, so their QoS
  /// cannot be guaranteed (the admission criterion of the original
  /// algorithm). Disable for single-cell studies where everything
  /// eventually "leaves".
  bool require_coverage = true;
  /// Shadow accounting footprint in cell hops around the shadow's anchor
  /// (the cell of its last report). 0 (default) = unbounded: every update
  /// touches every cell's accumulator — the historical behaviour at
  /// O(cells x intervals) per update. A positive reach bounds each update
  /// (and the periodic rebuild) to the cells within that many hops —
  /// group-LOCAL shadow accounting: the cost becomes flat in the network
  /// size, and a shadow's writes stay inside a bounded neighbourhood (the
  /// precondition for SCC ever committing from the engine's parallel
  /// cell-group lanes).
  ///
  /// Size it to the projection horizon, not to the Gaussian spread: the
  /// footprint is anchored at the LAST-REPORT cell, but contribution()
  /// centres each interval's Gaussian on the call's PREDICTED position —
  /// up to speed x (intervals x interval_s) ahead of the anchor. A reach
  /// smaller than that projected distance (in cell hops) cuts off the
  /// cells the mobile is headed for, silently disabling the predictive
  /// reservation for fast traffic — the bulk of the demand, not a tail.
  /// reach >= ceil(v_max * horizon / cell_pitch) + a hop for the spread
  /// keeps only the far Gaussian tails out; anything less is a knowingly
  /// more myopic model. Spec key: reach=N.
  int reach = 0;
};

/// Projected bandwidth demand for one cell over the horizon.
using DemandProfile = std::vector<double>;  // index = interval k

/// SCC admission controller over a hexagonal network.
///
/// The controller reconstructs each mobile's velocity vector from the
/// admission-time UserSnapshot (position + speed + angle relative to the
/// target base station); a production SCC would refresh these via the
/// inter-BS message system the paper describes, which a later snapshot
/// update through onAdmitted() of the next handoff approximates.
///
/// Demand bookkeeping is incremental: every base station keeps a running
/// per-interval sum of the shadows currently cast over it, updated on call
/// arrival (onAdmitted), departure (onReleased) and handoff (the refreshing
/// onAdmitted), exactly like the original scheme's BS-side accumulation of
/// mobiles' probability vectors. decide() therefore reads projected demand
/// as an O(cluster x intervals) lookup — flat in the number of tracked
/// calls — instead of re-integrating every shadow per decision. Each
/// shadow's projection is anchored at its last report (admission or
/// handoff), which is when the original algorithm's messages update it.
class ShadowClusterController final : public cellular::AdmissionController {
 public:
  /// \param network the cell layout (not owned; must outlive the controller).
  ShadowClusterController(const cellular::HexNetwork& network,
                          SccConfig config = {});

  [[nodiscard]] std::string name() const override { return "SCC"; }

  /// Partition-aware scope. With a bounded `reach`, every shadow's writes
  /// stay inside a known neighbourhood of its anchor, so the controller
  /// can keep per-group shadow stores keyed by the engine's partition and
  /// commit from concurrent group lanes — GroupLocal: in-group footprint
  /// rows update live, rows crossing a group boundary defer into
  /// demand-delta records drained (tree-combined) at onCommitBarrier().
  /// reach = 0 is the original unbounded accumulation — every update
  /// touches every cell — which no partition can confine: Global, and the
  /// engine serializes to one lane.
  [[nodiscard]] cellular::CommitScope commitScope() const noexcept override {
    return config_.reach > 0 ? cellular::CommitScope::GroupLocal
                             : cellular::CommitScope::Global;
  }

  [[nodiscard]] cellular::AdmissionDecision decide(
      const cellular::CallRequest& request,
      const cellular::AdmissionContext& context) override;

  void onAdmitted(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override;
  void onReleased(const cellular::CallRequest& request,
                  const cellular::AdmissionContext& context) override;

  /// Adopts the engine's cell-to-group mapping (startup and every adopted
  /// repartition epoch — barrier context). With reach > 0 the shadows are
  /// re-keyed into one store per group, by each shadow's anchor group, in
  /// canonical call order; reach = 0 keeps the single group it was built
  /// with. `demand_` is left untouched by the re-keying — every tracked
  /// contribution is already folded in — so total projected demand is
  /// conserved exactly across a repartition.
  void onPartitionChanged(const cellular::CellGroupPartition& p) override;

  /// Applies the deferred cross-group demand deltas (sorted per acting
  /// group, tree-combined in canonical (cell, interval, group, seq) order,
  /// then folded serially), re-homes shadows whose handoff refresh crossed
  /// a group boundary, runs any due per-group exact rebuilds, and
  /// refreshes the barrier snapshot foreign-row reads use. Single-threaded
  /// by the engine's contract.
  [[nodiscard]] cellular::BarrierDrainStats onCommitBarrier(
      double now_s) override;

  /// Warns when a bounded reach is smaller than the projection horizon of
  /// the fastest mobile needs: the footprint is anchored at the LAST
  /// report, but contribution() centres each interval's Gaussian on the
  /// PREDICTED position — an undersized reach cuts off the cells the
  /// mobile is headed for, silently disabling predictive reservation for
  /// fast traffic (the SccConfig::reach footgun, now audited).
  [[nodiscard]] std::string auditWorkload(
      const cellular::WorkloadEnvelope& envelope) const override;

  /// Projected demand profile of one cell from all currently tracked
  /// mobiles (exposed for tests and the operator-dashboard example). An
  /// O(intervals) copy of the incremental cache; each shadow's projection
  /// is anchored at its last report.
  [[nodiscard]] DemandProfile projectedDemand(cellular::CellId cell) const;

  /// Number of mobiles currently exerting a shadow (summed over the
  /// per-group stores).
  [[nodiscard]] std::size_t trackedCalls() const noexcept {
    std::size_t n = 0;
    for (const GroupStore& store : stores_) n += store.shadows.size();
    return n;
  }

  [[nodiscard]] const SccConfig& config() const noexcept { return config_; }

  /// Cells of the shadow cluster centred on \p center: the ascending ids
  /// within cluster_radius hops.
  [[nodiscard]] const std::vector<cellular::CellId>& cluster(
      cellular::CellId center) const {
    return clusters_.at(static_cast<std::size_t>(center));
  }

  /// Cells one shadow anchored at \p anchor may touch: all of them at
  /// reach = 0, the precomputed <= reach-hop neighbourhood otherwise.
  [[nodiscard]] const std::vector<cellular::CellId>& footprint(
      cellular::CellId anchor) const;

 private:
  /// Per-call shadow source: last reported kinematics + demand, anchored
  /// at the cell of the last report (admission or handoff refresh) — the
  /// centre of its accounting footprint when reach bounds it.
  struct Shadow {
    mobility::MotionState state;
    double demand_bu = 0.0;
    cellular::CellId anchor = 0;
  };

  /// One commit group's slice of the shadows: every shadow whose anchor
  /// the partition maps to this group, plus the group's own rebuild
  /// counter. Invariant: a shadow lives in the store of its anchor's
  /// group — lanes and per-target-group reservation drains therefore touch
  /// disjoint stores. At one group this is the whole shadow set.
  struct GroupStore {
    std::unordered_map<cellular::CallId, Shadow> shadows;
    std::uint64_t updates_since_rebuild = 0;
  };

  /// One deferred cross-group accumulator write: "add value to cell's
  /// interval-k row". Produced inside a lane or drain whose acting group
  /// does not own the row; applied single-threaded at the barrier. The
  /// (cell, k, group, seq) key is the canonical combine order — seq is the
  /// append index within the acting group's buffer, so the fold is a pure
  /// function of the committed event sequence.
  struct DemandDelta {
    cellular::CellId cell = 0;
    std::int32_t k = 0;
    double value = 0.0;
    std::int32_t group = 0;
    std::uint32_t seq = 0;
  };

  struct DemandDeltaEarlier {
    bool operator()(const DemandDelta& a,
                    const DemandDelta& b) const noexcept {
      if (a.cell != b.cell) return a.cell < b.cell;
      if (a.k != b.k) return a.k < b.k;
      if (a.group != b.group) return a.group < b.group;
      return a.seq < b.seq;
    }
  };

  /// A handoff refresh that crossed a group boundary: the new shadow is
  /// already cast in stores_[to_group], but the stale record under the old
  /// anchor lives in a foreign store the acting drain must not touch. The
  /// barrier retracts and erases it (canonical order).
  struct Migration {
    cellular::CallId call = 0;
    int to_group = 0;
  };

  /// Probability-weighted demand contribution of one shadow to one cell at
  /// interval k, anchored at the shadow's capture instant.
  [[nodiscard]] double contribution(const Shadow& shadow,
                                    cellular::CellId cell, int k) const;

  /// Adds (sign +1) or retracts (sign -1) one shadow's contribution — the
  /// incremental cache update. Footprint rows owned by the shadow's anchor
  /// group apply live (the acting lane/drain owns them); rows across a
  /// group boundary defer into the acting group's delta buffer for the
  /// barrier to fold. At one group every row applies live. Counts one
  /// update toward the acting group's rebuild counter.
  void applyShadow(const Shadow& shadow, double sign);

  /// Per-group exact rebuilds: any group whose counter crossed
  /// rebuild_every gets its cells' rows zeroed and recomputed from every
  /// tracked shadow whose footprint intersects them (stores in index
  /// order, canonical call order within each) — exactly what the
  /// incremental updates accumulated there, minus the float residue. At one
  /// group the public mutators run it inline, when the store and demand_
  /// agree (never mid-refresh, where a rebuild would double-count the
  /// shadow being replaced); grouped runs rebuild at the barrier.
  void maybeRebuild();

  /// Folds the deferred cross-group deltas (sort per buffer, tree-combine,
  /// serial apply) and re-homes migrated shadows. Barrier context.
  [[nodiscard]] cellular::BarrierDrainStats drainBarrierWork();

  /// True when the shadows split over more than one commit group (only a
  /// bounded reach ever adopts such a partition).
  [[nodiscard]] bool grouped() const noexcept { return stores_.size() > 1; }

  [[nodiscard]] std::size_t demandIndex(cellular::CellId cell,
                                        int k) const noexcept {
    return static_cast<std::size_t>(cell) *
               static_cast<std::size_t>(config_.intervals) +
           static_cast<std::size_t>(k);
  }

  [[nodiscard]] double demandAt(cellular::CellId cell, int k) const noexcept {
    return demand_[demandIndex(cell, k)];
  }

  /// Row read for a decision acting in group \p g: the group's own rows
  /// read live (end-of-window within the lane's canonical replay), foreign
  /// rows read the barrier snapshot — the same visibility the engine's
  /// reservation protocol gives cross-group state. At one group (g < 0)
  /// every row is the acting group's own and reads live.
  [[nodiscard]] double demandRead(int g, cellular::CellId cell,
                                  int k) const noexcept {
    if (g < 0 || partition_.groupOf(cell) == g) return demandAt(cell, k);
    return snapshot_[demandIndex(cell, k)];
  }

  const cellular::HexNetwork& network_;
  SccConfig config_;
  /// Running per-(cell, interval) demand sums over all tracked shadows —
  /// what each BS would hold after accumulating every mobile's probability
  /// vector. Row-major: cell * intervals + k.
  std::vector<double> demand_;
  /// Precomputed cluster membership (ascending ids within cluster_radius),
  /// so the decide() hot path never allocates.
  std::vector<std::vector<cellular::CellId>> clusters_;
  /// Precomputed accounting footprints (ascending ids within reach hops),
  /// indexed by anchor cell; empty when reach == 0 (unbounded accounting) —
  /// then footprint() answers with all_cells_.
  std::vector<std::vector<cellular::CellId>> footprints_;
  std::vector<cellular::CellId> all_cells_;

  /// Copy of the engine's cell-to-group mapping, adopted at
  /// onPartitionChanged(); one group from construction, so a controller
  /// driven directly (unit tests, the operator dashboard) needs no
  /// partition.
  cellular::CellGroupPartition partition_;
  /// Per-group shadow stores, indexed by commit group (stores_[g] holds
  /// exactly the shadows whose anchor maps to g). Never empty.
  std::vector<GroupStore> stores_;
  /// Barrier snapshot of demand_ — what foreign-group rows read during a
  /// window (each row has exactly one live writer: its owner group).
  /// Refreshed at every grouped onCommitBarrier(); unread at one group.
  std::vector<double> snapshot_;
  /// Per-acting-group deferred cross-group writes and boundary-crossing
  /// handoff re-homes. Exactly one writer per phase (the group's lane, its
  /// reservation drain, or the serial barrier), drained every barrier.
  std::vector<std::vector<DemandDelta>> deferred_;
  std::vector<std::vector<Migration>> migrations_;
};

/// Reconstructs a mobile's motion state from an admission snapshot taken
/// relative to \p station_position (heading = bearing-to-BS + angle).
[[nodiscard]] mobility::MotionState motionFromSnapshot(
    const cellular::UserSnapshot& snapshot,
    cellular::Vec2 station_position) noexcept;

}  // namespace facs::scc
