#pragma once
/// \file radio.hpp
/// A simple radio layer for the cellular substrate: log-distance path loss
/// and downlink SIR estimation across co-channel cells. This backs the SIR-based admission baseline (`cac::SirController`)
/// — the interference/power-control CAC family the paper's Section 1 cites
/// ([2] Wang et al., [6] Xiao et al.) — and gives examples a physically
/// grounded signal model.
///
/// The interference sum is the hot path (one term per co-channel cell per
/// admission decision), so the model precomputes everything that depends
/// only on its immutable RadioConfig at construction:
///
///  * **Gain constant.** The log-distance chain
///    `dbmToMw(tx − PL0 − 10·n·log10(d/d0))` factors into `C · d^−n` with
///    `C = dbmToMw(tx − PL0 + 10·n·log10(d0))` — one `pow` per interferer
///    instead of a `log10` + `pow` round trip, and `d^−n = (d²)^(−n/2)`
///    drops the `hypot`/`sqrt` too. Tx power and path loss are network-wide
///    here (reuse-1, uniform sites), so C is a single scalar rather than
///    the per-cell table a heterogeneous deployment would need.
///  * **Interferer tables.** Per serving cell, the ids of the co-channel
///    cells in its interference footprint as one flat SoA walk (ids +
///    station coordinates), in ascending id order — the same summation
///    order as iterating `network.cells()`, so the footprint-bounded walk
///    at radius 0 reproduces the naive loop's floating-point sum exactly.
///  * **Truncated-tail bound.** When the footprint is bounded
///    (`interference_radius_hops > 0`), a worst-case bound on the
///    interference the truncation can ever discard (every excluded cell
///    fully utilized, the user at its closest possible approach), so
///    callers can audit the approximation instead of trusting it.
///
/// Units: distances km, powers dBm, gains/losses dB.

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "cellular/geometry.hpp"
#include "cellular/network.hpp"

namespace facs::cellular {

/// Log-distance path-loss model: PL(d) = PL0 + 10 n log10(d / d0).
/// RadioModel evaluates it in the linear domain (see the file comment).
/// Defaults describe the rural/
/// suburban macro deployment the paper's 10 km cells imply (a 2 GHz urban
/// profile would leave the edge of such a cell noise-limited and dead):
/// PL0 = 100 dB at 1 km, exponent 3.5, so a 43 dBm site still delivers
/// ~12 dB SNR at the 10 km edge and co-channel neighbours dominate noise.
struct PathLossParams {
  double reference_loss_db = 100.0;  ///< PL0 at d0 (rural macro, sub-GHz-ish).
  double reference_distance_km = 1.0;
  double exponent = 3.5;             ///< n; free space = 2, dense urban ~4.
  double min_distance_km = 0.01;     ///< Clamp to avoid the d -> 0 pole.
};

/// Configuration of the downlink radio model.
struct RadioConfig {
  PathLossParams path_loss{};
  double tx_power_dbm = 43.0;      ///< Typical macro BS.
  double noise_floor_dbm = -104.0; ///< Thermal noise over 10 MHz-ish.
  /// Interference activity factor in [0, 1]: fraction of each interfering
  /// cell's power that is actually radiated, scaled by the cell's
  /// bandwidth utilization at evaluation time.
  double activity_factor = 1.0;
  /// Interference footprint: only cells within this many hex hops of the
  /// serving cell enter the interference sum. 0 (the default) keeps the
  /// exact whole-network sum. Bounding the footprint is an approximation —
  /// interference falls as d^−n, so the discarded tail is small and its
  /// worst case is computable (truncationTailBoundMw()) — and it is what
  /// makes the SIR read set partition-confinable.
  int interference_radius_hops = 0;
};

/// Downlink radio snapshot of one network: every base station transmits at
/// a fixed power on the same channel (reuse-1), and a user's SIR is the
/// serving-cell signal over the sum of all other cells' signals plus
/// thermal noise.
///
/// The gain constant and per-serving-cell interferer tables are derived
/// from the RadioConfig once, at construction; the config is immutable for
/// the model's lifetime, so the tables never go stale.
class RadioModel {
 public:
  using Config = RadioConfig;

  /// \param network not owned; must outlive the model.
  /// \throws std::invalid_argument on nonsensical config.
  RadioModel(const HexNetwork& network, Config config = {});

  /// Received power (dBm) at \p position from \p cell.
  [[nodiscard]] double receivedPowerDbm(Vec2 position, CellId cell) const;

  /// Downlink SINR (dB) at \p position served by \p serving_cell.
  /// Interference from each other cell in the footprint is weighted by that
  /// cell's current utilization (an idle cell does not interfere).
  [[nodiscard]] double sinrDb(Vec2 position, CellId serving_cell) const;

  /// As sinrDb(), but reading each interferer's utilization through
  /// \p util (CellId -> utilization in [0, 1]) instead of the live station
  /// ledgers. This is the partition-aware hook: a GroupLocal policy passes
  /// a functor that reads own-group cells live and foreign cells from its
  /// barrier snapshot. The interferer set, walk order and arithmetic are
  /// identical to sinrDb() — only the utilization values differ, so a
  /// functor returning live utilizations reproduces sinrDb() bit-for-bit.
  template <class UtilFn>
  [[nodiscard]] double sinrDbWith(Vec2 position, CellId serving_cell,
                                  UtilFn&& util) const {
    const double signal_mw = linkPowerMw(position, serving_cell);
    double interference_mw = noise_mw_;
    const std::uint32_t begin = interferer_offsets_[serving_cell];
    const std::uint32_t end = interferer_offsets_[serving_cell + 1];
    for (std::uint32_t k = begin; k != end; ++k) {
      const CellId cell = interferer_ids_[k];
      const double activity = config_.activity_factor * util(cell);
      if (activity <= 0.0) continue;
      const double dx = position.x - station_x_[k];
      const double dy = position.y - station_y_[k];
      const double d2 = std::max(dx * dx + dy * dy, min_distance_sq_);
      interference_mw +=
          activity * gain_const_mw_ * std::pow(d2, neg_half_exponent_);
    }
    return linearToDbFast(signal_mw / interference_mw);
  }

  /// Ids of the cells in \p serving_cell's interference footprint, in
  /// ascending id order (the canonical summation order). The whole network
  /// minus the serving cell at radius 0.
  [[nodiscard]] std::span<const CellId> interferersOf(
      CellId serving_cell) const {
    return {interferer_ids_.data() + interferer_offsets_[serving_cell],
            interferer_ids_.data() + interferer_offsets_[serving_cell + 1]};
  }

  /// Worst case on the interference power (mW) the bounded footprint can
  /// discard, over every serving cell and every user position inside it:
  /// each excluded cell at full activity, the user at the excluded
  /// station's closest possible approach (cell edge toward it). 0 when the
  /// footprint is unbounded. Compare against noiseFloorMw(): a tail far
  /// below the noise floor cannot move any SINR comparison that noise
  /// itself does not already dominate.
  [[nodiscard]] double truncationTailBoundMw() const noexcept {
    return tail_bound_mw_;
  }

  /// Thermal noise floor in linear mW (the constant term of every
  /// interference sum).
  [[nodiscard]] double noiseFloorMw() const noexcept { return noise_mw_; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const HexNetwork& network() const noexcept { return network_; }

 private:
  [[nodiscard]] double linkPowerMw(Vec2 position, CellId cell) const;
  /// linearToDb without the function-call indirection (kept private so the
  /// public helper below stays the single documented entry point).
  [[nodiscard]] static double linearToDbFast(double linear) noexcept {
    return 10.0 * std::log10(linear);
  }
  void buildTables();

  const HexNetwork& network_;
  Config config_;

  // Derived once from config_ at construction.
  double gain_const_mw_ = 0.0;      ///< C in power_mw = C * d^-n.
  double neg_half_exponent_ = 0.0;  ///< -n/2, for (d^2)^(-n/2).
  double min_distance_sq_ = 0.0;    ///< Clamp for the d -> 0 pole, squared.
  double noise_mw_ = 0.0;           ///< dbmToMw(noise_floor_dbm).
  double tail_bound_mw_ = 0.0;      ///< See truncationTailBoundMw().

  // Flat per-serving-cell interferer tables: for serving cell s, entries
  // [interferer_offsets_[s], interferer_offsets_[s+1]) of interferer_ids_
  // (ascending) and the matching station coordinates (SoA, indexed by the
  // same k — no second indirection through the network in the hot loop).
  std::vector<std::uint32_t> interferer_offsets_;
  std::vector<CellId> interferer_ids_;
  std::vector<double> station_x_;
  std::vector<double> station_y_;
};

/// dB <-> linear helpers.
[[nodiscard]] double dbToLinear(double db) noexcept;
[[nodiscard]] double linearToDb(double linear) noexcept;
[[nodiscard]] double dbmToMw(double dbm) noexcept;
[[nodiscard]] double mwToDbm(double mw) noexcept;

}  // namespace facs::cellular
