#pragma once
/// \file probes.hpp
/// Layer probes: ns per call of the public functions each layer exposes,
/// fed the workload's own inputs — request plans from sim::drawRequest on
/// the workload's scenario, GPS walks with its window and fix period,
/// cellAt on positions inside its own disk, FLC1/FLC2 on the snapshots
/// those walks produce.

#include <string>
#include <vector>

#include "workloads.hpp"

namespace facsbench {

struct ProbeResult {
  std::string name;  ///< Metric name, e.g. "rng.make_ns".
  double ns = 0.0;   ///< Median ns per call.
};

/// Runs every probe once (about a second in all).
[[nodiscard]] std::vector<ProbeResult> runProbes(const Workload& workload,
                                                 std::uint64_t seed);

}  // namespace facsbench
