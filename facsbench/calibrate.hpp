#pragma once
/// \file calibrate.hpp
/// Host calibration, measured in the benchmark process before any
/// workload runs: a fixed single-thread kernel and the same kernel spun on
/// every hardware thread at once. Printed next to every result set (not a
/// metric), so a set taken on a slow or crowded host can be told apart
/// from a regression.

namespace facsbench {

struct Calibration {
  double kernel_ns = 0.0;  ///< One step of the fixed kernel, one thread.
  int threads = 0;         ///< Threads spun (the host's hardware threads).
  /// threads x single-thread time / all-thread time: the number of cores
  /// the process effectively got (== threads on an idle host).
  double effective_cores = 0.0;
};

[[nodiscard]] Calibration calibrate();

}  // namespace facsbench
