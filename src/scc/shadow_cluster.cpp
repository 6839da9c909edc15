#include "scc/shadow_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cellular/policy_registry.hpp"
#include "sim/reservation.hpp"  // mergeCombine — the barrier's combining shape

namespace facs::scc {

using cellular::AdmissionContext;
using cellular::AdmissionDecision;
using cellular::CallRequest;
using cellular::CellId;
using cellular::Vec2;

mobility::MotionState motionFromSnapshot(
    const cellular::UserSnapshot& snapshot,
    Vec2 station_position) noexcept {
  mobility::MotionState m;
  m.position_km = snapshot.position;
  m.speed_kmh = snapshot.speed_kmh;
  // snapshot.angle_deg = heading - bearing(user -> BS), so invert.
  m.heading_deg = cellular::normalizeAngleDeg(
      cellular::bearingDeg(snapshot.position, station_position) +
      snapshot.angle_deg);
  return m;
}

namespace {

void validateConfig(const SccConfig& config) {
  if (config.intervals < 1) {
    throw std::invalid_argument("SCC horizon must span >= 1 interval");
  }
  if (!(config.interval_s > 0.0)) {
    throw std::invalid_argument("SCC interval length must be positive");
  }
  if (!(config.threshold > 0.0)) {
    throw std::invalid_argument("SCC survivability threshold must be positive");
  }
  if (config.cluster_radius < 0) {
    throw std::invalid_argument("SCC cluster radius must be >= 0");
  }
  if (!(config.sigma_base_km > 0.0) || config.sigma_growth_km < 0.0) {
    throw std::invalid_argument("SCC spread parameters must be positive");
  }
  if (!(config.mean_holding_s > 0.0)) {
    throw std::invalid_argument("SCC mean holding time must be positive");
  }
  if (config.rebuild_every < 0) {
    throw std::invalid_argument("SCC rebuild period must be >= 0 (0 = off)");
  }
  if (config.reach < 0) {
    throw std::invalid_argument(
        "SCC accounting reach must be >= 0 (0 = unbounded)");
  }
}

}  // namespace

ShadowClusterController::ShadowClusterController(
    const cellular::HexNetwork& network, SccConfig config)
    : network_{network}, config_{config}, partition_{network, 1},
      stores_(1), deferred_(1), migrations_(1) {
  validateConfig(config_);
  demand_.assign(network_.cellCount() *
                     static_cast<std::size_t>(config_.intervals),
                 0.0);
  clusters_ = network_.cellsWithinHops(config_.cluster_radius);
  all_cells_.reserve(network_.cellCount());
  for (const cellular::Cell& cell : network_.cells()) {
    all_cells_.push_back(cell.id);
  }
  if (config_.reach > 0) footprints_ = network_.cellsWithinHops(config_.reach);
}

const std::vector<cellular::CellId>& ShadowClusterController::footprint(
    cellular::CellId anchor) const {
  if (footprints_.empty()) return all_cells_;
  return footprints_[static_cast<std::size_t>(anchor)];
}

double ShadowClusterController::contribution(const Shadow& shadow, CellId cell,
                                             int k) const {
  // Position is projected from the shadow's last report (admission or
  // handoff — when the original scheme's inter-BS messages refresh it);
  // activity decay is memoryless, so it only depends on how far into the
  // future we look.
  const double mid_of_interval_s = (k + 0.5) * config_.interval_s;
  const double p_active = std::exp(-mid_of_interval_s / config_.mean_holding_s);

  const Vec2 predicted =
      shadow.state.position_km +
      cellular::headingVector(shadow.state.heading_deg) *
          (shadow.state.speed_kmh / 3600.0 * mid_of_interval_s);

  const double sigma_km =
      config_.sigma_base_km + config_.sigma_growth_km * k;
  const double d_km = predicted.distanceTo(network_.cell(cell).center);
  // Unnormalized Gaussian kernel: each BS accumulates the probability that
  // the mobile shows up in *its* cell independently, which (like the
  // original scheme's per-BS bookkeeping) deliberately over-reserves when
  // a mobile threatens several cells at once.
  const double spatial = std::exp(-(d_km * d_km) / (2.0 * sigma_km * sigma_km));
  return shadow.demand_bu * p_active * spatial;
}

void ShadowClusterController::applyShadow(const Shadow& shadow, double sign) {
  // The acting group is the shadow's anchor group — the lane (or drain)
  // that owns stores_[g] and therefore this call's commit. Footprint rows
  // the partition maps to the same group are the lane's own: write live.
  // Rows across a boundary belong to another lane's cells; deferring them
  // into the acting group's buffer keeps every demand_ row single-writer
  // during the parallel phase, and the barrier folds the buffers in
  // canonical order so the float sums stay shard-invariant. A bounded
  // reach confines the write set to the anchor's neighbourhood (flat in
  // the network size); reach = 0 visits every cell — the original global
  // accumulation, always at one group.
  const int g = partition_.groupOf(shadow.anchor);
  std::vector<DemandDelta>& defer = deferred_[static_cast<std::size_t>(g)];
  for (const cellular::CellId cell : footprint(shadow.anchor)) {
    const bool own_row = partition_.groupOf(cell) == g;
    for (int k = 0; k < config_.intervals; ++k) {
      const double value = sign * contribution(shadow, cell, k);
      if (own_row) {
        demand_[demandIndex(cell, k)] += value;
      } else {
        DemandDelta delta;
        delta.cell = cell;
        delta.k = k;
        delta.value = value;
        delta.group = g;
        delta.seq = static_cast<std::uint32_t>(defer.size());
        defer.push_back(delta);
      }
    }
  }
  ++stores_[static_cast<std::size_t>(g)].updates_since_rebuild;
}

void ShadowClusterController::maybeRebuild() {
  if (config_.rebuild_every <= 0) return;
  for (std::size_t g = 0; g < stores_.size(); ++g) {
    GroupStore& due = stores_[g];
    if (due.updates_since_rebuild <
        static_cast<std::uint64_t>(config_.rebuild_every)) {
      continue;
    }
    due.updates_since_rebuild = 0;
    // Zero exactly the rows this group owns, then re-accumulate every
    // tracked shadow's contribution to those rows (stores in index order,
    // canonical call order within each, so the sums depend on the live
    // shadow set alone, not on hash-map bucket history) — the same sums
    // the incremental updates built there, minus the float residue. Other
    // groups' rows are untouched: their residue ages on their own counters.
    for (const cellular::CellId cell : all_cells_) {
      if (partition_.groupOf(cell) != static_cast<int>(g)) continue;
      for (int k = 0; k < config_.intervals; ++k) {
        demand_[demandIndex(cell, k)] = 0.0;
      }
    }
    std::vector<cellular::CallId> ids;
    for (const GroupStore& store : stores_) {
      ids.clear();
      ids.reserve(store.shadows.size());
      for (const auto& [id, shadow] : store.shadows) ids.push_back(id);
      std::sort(ids.begin(), ids.end());
      for (const cellular::CallId id : ids) {
        const Shadow& shadow = store.shadows.find(id)->second;
        for (const cellular::CellId cell : footprint(shadow.anchor)) {
          if (partition_.groupOf(cell) != static_cast<int>(g)) continue;
          for (int k = 0; k < config_.intervals; ++k) {
            demand_[demandIndex(cell, k)] += contribution(shadow, cell, k);
          }
        }
      }
    }
  }
}

DemandProfile ShadowClusterController::projectedDemand(CellId cell) const {
  DemandProfile profile(static_cast<std::size_t>(config_.intervals), 0.0);
  for (int k = 0; k < config_.intervals; ++k) {
    profile[static_cast<std::size_t>(k)] = demandAt(cell, k);
  }
  return profile;
}

AdmissionDecision ShadowClusterController::decide(
    const CallRequest& request, const AdmissionContext& context) {
  CellId center = request.target_cell;
  if (center == cellular::kInvalidCell) {
    const auto found = network_.cellAt(request.snapshot.position);
    center = found.value_or(context.station.cell());
  }

  Shadow tentative;
  tentative.state =
      motionFromSnapshot(request.snapshot, network_.cell(center).center);
  tentative.demand_bu = static_cast<double>(request.demand_bu);

  // A shadow cluster can only guarantee QoS inside the network: a mobile
  // predicted to exit coverage within the horizon is denied outright.
  if (config_.require_coverage) {
    for (int k = 0; k < config_.intervals; ++k) {
      const double tau_s = (k + 0.5) * config_.interval_s;
      const Vec2 predicted =
          tentative.state.position_km +
          cellular::headingVector(tentative.state.heading_deg) *
              (tentative.state.speed_kmh / 3600.0 * tau_s);
      if (!network_.cellAt(predicted)) {
        AdmissionDecision denial;
        denial.accept = false;
        denial.reason = cellular::ReasonCode::LeavesCoverage;
        denial.score = -1.0;
        if (context.explain) {
          denial.rationale = "predicted to leave coverage within the horizon";
        }
        return denial;
      }
    }
  }

  // Every cell of the tentative shadow cluster must be able to support the
  // projected demand over the whole horizon. Existing demand is the
  // incremental per-BS accumulator — an O(1) read per (cell, interval), so
  // the decision cost is flat in the number of tracked calls. Grouped runs
  // read the acting group's own rows live and foreign-group rows from the
  // barrier snapshot (the same visibility the engine's reservations give
  // cross-group ledger state).
  const int g = grouped() ? partition_.groupOf(center) : -1;
  double worst_headroom = std::numeric_limits<double>::infinity();
  for (const CellId cell : clusters_[static_cast<std::size_t>(center)]) {
    const double budget =
        config_.threshold *
        static_cast<double>(network_.station(cell).capacityBu());
    for (int k = 0; k < config_.intervals; ++k) {
      const double projected =
          demandRead(g, cell, k) + contribution(tentative, cell, k);
      worst_headroom = std::min(worst_headroom, budget - projected);
    }
  }

  const bool fits = context.station.canFit(request.demand_bu);
  AdmissionDecision decision;
  decision.accept = worst_headroom >= 0.0 && fits;
  decision.reason = decision.accept ? cellular::ReasonCode::Admitted
                    : fits          ? cellular::ReasonCode::ProjectedOverload
                                    : cellular::ReasonCode::NoCapacity;
  // Coarse confidence: headroom as a fraction of one cell's budget.
  const double budget =
      config_.threshold * static_cast<double>(context.station.capacityBu());
  decision.score = std::clamp(worst_headroom / budget, -1.0, 1.0);
  if (context.explain) {
    decision.rationale.appendf("worst-headroom=%g BU over %d intervals",
                               worst_headroom, config_.intervals);
    if (!fits) decision.rationale.appendf(" (no free BU)");
  }
  return decision;
}

void ShadowClusterController::onAdmitted(const CallRequest& request,
                                         const AdmissionContext& context) {
  CellId center = request.target_cell;
  if (center == cellular::kInvalidCell) center = context.station.cell();
  Shadow shadow;
  shadow.state =
      motionFromSnapshot(request.snapshot, network_.cell(center).center);
  shadow.demand_bu = static_cast<double>(request.demand_bu);
  shadow.anchor = center;
  const int g = partition_.groupOf(center);
  GroupStore& store = stores_[static_cast<std::size_t>(g)];
  const auto [it, inserted] = store.shadows.try_emplace(request.call, shadow);
  if (!inserted) {
    // Handoff refresh within the acting group's own store: retract the
    // stale shadow in-lane before casting the new one.
    applyShadow(it->second, -1.0);
    it->second = shadow;
  } else if (request.is_handoff && grouped()) {
    // The refresh crossed a group boundary: the stale record is anchored
    // in a foreign store this lane must not touch. Cast the new shadow
    // now; leave a migration record so the barrier retracts and erases
    // the old one (demand_ conserved — its contribution stays folded in
    // until exactly then).
    migrations_[static_cast<std::size_t>(g)].push_back({request.call, g});
  }
  applyShadow(shadow, +1.0);
  if (!grouped()) maybeRebuild();  // grouped runs rebuild at the barrier
}

void ShadowClusterController::onReleased(const CallRequest& request,
                                         const AdmissionContext& context) {
  // The release reaches us in the lane (or drain) acting for the cell the
  // call occupied — which is the shadow's anchor (both are set by the same
  // last admission), so the lookup stays inside the acting group's own
  // store. A miss means the call was never tracked: nothing to retract.
  CellId cell = request.target_cell;
  if (cell == cellular::kInvalidCell) cell = context.station.cell();
  GroupStore& store =
      stores_[static_cast<std::size_t>(partition_.groupOf(cell))];
  const auto it = store.shadows.find(request.call);
  if (it == store.shadows.end()) return;
  applyShadow(it->second, -1.0);
  store.shadows.erase(it);
  if (!grouped()) maybeRebuild();
}

void ShadowClusterController::onPartitionChanged(
    const cellular::CellGroupPartition& p) {
  if (config_.reach <= 0) return;  // Global scope: one group, always
  // The engine drains the policy barrier before adopting a repartition, so
  // this is normally a no-op; a direct driver (unit tests) may still have
  // deferred work keyed to the old mapping — fold it first, under that
  // mapping, or the delta targets would be re-homed out from under the
  // buffered records.
  (void)drainBarrierWork();
  // Canonical call order makes the re-keyed stores — and every later
  // rebuild walking them — independent of hash-map bucket history.
  std::vector<std::pair<cellular::CallId, Shadow>> tracked;
  tracked.reserve(trackedCalls());
  for (const GroupStore& store : stores_) {
    for (const auto& [id, shadow] : store.shadows) {
      tracked.emplace_back(id, shadow);
    }
  }
  std::sort(tracked.begin(), tracked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  partition_ = p;  // copy: the engine's reference dies with this call
  const auto groups = static_cast<std::size_t>(partition_.groups());
  stores_.assign(groups, GroupStore{});
  deferred_.assign(groups, {});
  migrations_.assign(groups, {});
  for (auto& [id, shadow] : tracked) {
    stores_[static_cast<std::size_t>(partition_.groupOf(shadow.anchor))]
        .shadows.emplace(id, shadow);
  }
  // demand_ is deliberately untouched: every tracked contribution is
  // already folded in, so total projected demand is conserved EXACTLY
  // across the re-key (the migration moves records, not float sums). The
  // per-group rebuild counters restart at zero — deterministic.
  snapshot_ = demand_;
}

cellular::BarrierDrainStats ShadowClusterController::onCommitBarrier(
    double /*now_s*/) {
  if (!grouped()) return {};
  const cellular::BarrierDrainStats stats = drainBarrierWork();
  maybeRebuild();
  // The next window's foreign-row reads see everything up to this barrier
  // and nothing later — reservation visibility, for demand rows.
  snapshot_ = demand_;
  return stats;
}

cellular::BarrierDrainStats ShadowClusterController::drainBarrierWork() {
  cellular::BarrierDrainStats stats;
  // Fold the deferred cross-group writes: sort each acting group's buffer
  // by the canonical (cell, interval, group, seq) key, tree-combine pairs
  // of sorted runs (the reservation drain's combining shape), then apply
  // serially. The fold order is a pure function of the committed event
  // sequence, so the float sums are reproducible at any shard count.
  bool any = false;
  for (std::vector<DemandDelta>& buffer : deferred_) {
    if (!buffer.empty()) {
      std::sort(buffer.begin(), buffer.end(), DemandDeltaEarlier{});
      any = true;
    }
  }
  if (any) {
    for (std::size_t step = 1; step < deferred_.size(); step *= 2) {
      for (std::size_t g = 0; g + step < deferred_.size(); g += 2 * step) {
        sim::mergeCombine(deferred_[g], deferred_[g + step],
                          DemandDeltaEarlier{});
      }
    }
    for (const DemandDelta& delta : deferred_[0]) {
      demand_[demandIndex(delta.cell, delta.k)] += delta.value;
    }
    stats.deltas_applied = deferred_[0].size();
    deferred_[0].clear();
  }
  // Re-home boundary-crossing handoff refreshes: the fresh shadow already
  // sits in stores_[to_group]; the stale record under the old anchor still
  // holds its contribution in a foreign store. Serial context — retract
  // those rows live and erase it (groups ascending, append order within).
  for (std::vector<Migration>& moves : migrations_) {
    for (const Migration& move : moves) {
      for (std::size_t s = 0; s < stores_.size(); ++s) {
        if (static_cast<int>(s) == move.to_group) continue;
        GroupStore& store = stores_[s];
        const auto it = store.shadows.find(move.call);
        if (it == store.shadows.end()) continue;
        for (const cellular::CellId cell : footprint(it->second.anchor)) {
          for (int k = 0; k < config_.intervals; ++k) {
            demand_[demandIndex(cell, k)] -=
                contribution(it->second, cell, k);
          }
        }
        ++store.updates_since_rebuild;
        store.shadows.erase(it);
        ++stats.shadows_migrated;
        break;
      }
    }
    moves.clear();
  }
  return stats;
}

std::string ShadowClusterController::auditWorkload(
    const cellular::WorkloadEnvelope& envelope) const {
  if (config_.reach <= 0) return {};  // unbounded accounting: nothing to cut
  if (!(envelope.v_max_kmh > 0.0) || !(envelope.cell_radius_km > 0.0)) {
    return {};  // envelope unknown: no basis to audit against
  }
  // One hex hop between cell centres is sqrt(3) x circumradius; the
  // fastest mobile travels v_max x horizon within the projection window.
  const double pitch_km = std::sqrt(3.0) * envelope.cell_radius_km;
  const double horizon_s = config_.intervals * config_.interval_s;
  const double travel_km = envelope.v_max_kmh / 3600.0 * horizon_s;
  const int needed = static_cast<int>(std::ceil(travel_km / pitch_km)) + 1;
  if (config_.reach >= needed) return {};
  std::ostringstream os;
  os << "SCC reach=" << config_.reach
     << " is smaller than the projection horizon needs (reach >= " << needed
     << " for v_max=" << envelope.v_max_kmh << " km/h over " << horizon_s
     << " s): predicted cells of fast mobiles fall outside the accounting "
        "footprint, silently disabling their predictive reservations";
  return os.str();
}

// ------------------------------------------------------------------------
namespace {

using cellular::PolicyRegistrar;
using cellular::PolicySpec;

const PolicyRegistrar register_scc{
    {"scc",
     "Shadow Cluster Concept (Levine et al. 1997): probabilistic demand "
     "projection over neighbouring cells.",
     "scc[:THETA][,theta=T,sigma=S,growth=G,intervals=N,interval-s=S,"
     "radius=R,holding=S,coverage=0|1,rebuild=N,reach=N]"},
    [](const PolicySpec& spec) -> cellular::ControllerFactory {
      spec.expectOnly(1, {"theta", "sigma", "growth", "intervals",
                          "interval-s", "radius", "holding", "coverage",
                          "rebuild", "reach"});
      SccConfig cfg;
      cfg.threshold = spec.numberFor("theta", spec.numberAt(0, cfg.threshold));
      cfg.sigma_base_km = spec.numberFor("sigma", cfg.sigma_base_km);
      cfg.sigma_growth_km = spec.numberFor("growth", cfg.sigma_growth_km);
      cfg.intervals = spec.intFor("intervals", cfg.intervals);
      cfg.interval_s = spec.numberFor("interval-s", cfg.interval_s);
      cfg.cluster_radius = spec.intFor("radius", cfg.cluster_radius);
      cfg.mean_holding_s = spec.numberFor("holding", cfg.mean_holding_s);
      cfg.require_coverage =
          spec.intFor("coverage", cfg.require_coverage ? 1 : 0) != 0;
      cfg.rebuild_every = spec.intFor("rebuild", cfg.rebuild_every);
      cfg.reach = spec.intFor("reach", cfg.reach);
      try {
        validateConfig(cfg);  // fail at parse time, not mid-run
      } catch (const std::invalid_argument& e) {
        throw cellular::PolicySpecError(std::string{"policy 'scc': "} +
                                        e.what());
      }
      return [cfg](const cellular::HexNetwork& net) {
        return std::make_unique<ShadowClusterController>(net, cfg);
      };
    }};

}  // namespace

}  // namespace facs::scc
