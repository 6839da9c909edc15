#include "calibrate.hpp"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sim/rng.hpp"

namespace facsbench {

namespace {

constexpr std::uint64_t kSteps = 1u << 22;
/// The all-threads spin runs long enough (about 0.2 s) for idle virtual
/// CPUs to be woken and scheduled; a short spin would measure the wake-up.
constexpr std::uint64_t kSpinSteps = kSteps * 8;

/// A dependent chain of SplitMix64 steps: integer multiply latency bound,
/// no memory traffic, the same work on every host.
std::uint64_t kernel(std::uint64_t x, std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) x = facs::sim::splitmix64(x);
  return x;
}

volatile std::uint64_t g_sink = 0;

/// Wall seconds of one spin on each of \p threads threads at once.
double spin(int threads) {
  std::vector<std::uint64_t> results(static_cast<std::size_t>(threads));
  const std::int64_t t0 = nowNs();
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&results, t] {
        results[static_cast<std::size_t>(t)] =
            kernel(static_cast<std::uint64_t>(t) + 1, kSpinSteps);
      });
    }
  }  // jthreads join here
  const std::int64_t t1 = nowNs();
  for (const std::uint64_t r : results) g_sink = r;
  return secondsBetween(t0, t1);
}

}  // namespace

Calibration calibrate() {
  Calibration c;
  c.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<double> single;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = nowNs();
    g_sink = kernel(static_cast<std::uint64_t>(rep), kSteps);
    single.push_back(secondsBetween(t0, nowNs()));
  }
  c.kernel_ns = median(single) * 1e9 / static_cast<double>(kSteps);
  const double spin_s = std::min(spin(c.threads), spin(c.threads));
  c.effective_cores =
      c.threads * c.kernel_ns * 1e-9 * static_cast<double>(kSpinSteps) / spin_s;
  return c;
}

}  // namespace facsbench
