#pragma once
/// \file common.hpp
/// Small helpers shared by the benchmark's files: a monotonic clock in
/// nanoseconds, order statistics, the FNV-1a digest of deterministic
/// output, and the named-metric list every mode prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace facsbench {

/// Nanoseconds on the steady clock (only differences are meaningful).
[[nodiscard]] inline std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double secondsBetween(std::int64_t t0_ns,
                                           std::int64_t t1_ns) noexcept {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the "inclusive" method); 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a, chainable through \p h.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t h = kFnvOffset) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest round-trip decimal; a non-finite value is a benchmark bug and
/// renders as JSON null so the result line is refused instead of
/// silently reading as a number.
[[nodiscard]] inline std::string jsonNumber(double v) {
  return std::isfinite(v) ? facs::sim::shortestNumber(v) : "null";
}

/// a / b, or 0 when b is 0 (a layer the workload does not use).
[[nodiscard]] inline double ratio(double a, double b) noexcept {
  return b == 0.0 ? 0.0 : a / b;
}

/// How a per-layer number was obtained.
enum class Source {
  Measured,  ///< A wall-clock measurement (phase time, span, probe).
  Exact,     ///< Counted at the call (decorator) or read from Metrics.
  Derived,   ///< Computed from Metrics and the config, not counted.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Source source = Source::Measured;
};

/// Ordered list of named metrics; renders the `"metrics"` JSON object.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit,
           Source source = Source::Measured) {
    items_.push_back({std::move(name), value, std::move(unit), source});
  }
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Metric& m : items_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> items_;
};

}  // namespace facsbench
