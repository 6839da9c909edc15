/// \file main.cpp
/// The FACS benchmark program. run.py builds it and drives it; it can also
/// be run by hand from the root of a checkout:
///
///   facs_bench run    --workload NAME --seed N --seconds S --trace 0|1
///                     [--expect DIGEST] [--trace-out FILE]
///                     [--revision REV] [--source-hash HASH]
///   facs_bench check  --workload NAME --seed N [--expect DIGEST]
///   facs_bench digest --workload NAME --seed N
///
/// `run` is the closed loop with one client: each iteration is one call
/// into the simulator and the next starts when it returns and its output
/// has been checked. `check` makes the cross-run comparisons that need
/// extra runs (batch reference, shard or thread invariance) in a process
/// of their own, so they do not count toward the run's peak RSS. `digest`
/// prints the expected-output digest of one input variant.
///
/// Lines starting with '#' are the human-readable report; the last line
/// is one JSON object for run.py.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "calibrate.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace facsbench {
namespace {

namespace sim = facs::sim;

/// Set-up repetitions before the loop and after each iteration; setup_s
/// is the median of all of them, so it samples the same host conditions
/// as the loop rather than one moment.
constexpr int kSetupRepsBefore = 21;
constexpr int kSetupRepsBetween = 5;
/// Traced iterations whose spans are kept and written out (bounds span
/// memory and the trace file); later ones only feed the totals.
constexpr std::size_t kWrittenTracedIterations = 2;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> expect;
  std::string trace_out;
  std::string revision = "unknown";
  std::string source_hash = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "facs_bench: " << why
            << "\nusage: facs_bench run|check|digest --workload NAME "
               "--seed N [--seconds S] [--trace 0|1] [--expect DIGEST] "
               "[--trace-out FILE] [--revision REV] [--source-hash HASH]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("flag " + std::string{flag} + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--expect") {
      a.expect = std::strtoull(value.c_str(), &end, 16);
      if (end == value.c_str() || *end != '\0') usage("bad --expect " + value);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else if (flag == "--source-hash") {
      a.source_hash = value;
    } else {
      usage("unknown flag " + std::string{flag});
    }
  }
  if (a.mode != "run" && a.mode != "check" && a.mode != "digest") {
    usage("unknown mode " + a.mode);
  }
  if (!parseWorkload(a.workload)) usage("unknown workload '" + a.workload + "'");
  return a;
}

/// Counts checked operations and reports each failure on the '#' channel.
class Tally {
 public:
  void add(std::string_view what, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& p : problems) {
      std::cout << "# FAILED " << what << ": " << p << '\n';
    }
  }
  /// Invariants plus the digest of the deterministic output.
  void addIteration(std::string_view what, const Workload& w,
                    const Iteration& it, std::optional<std::uint64_t> expect) {
    std::vector<std::string> problems = w.check(it);
    if (!expect) {
      problems.push_back("no recorded digest for this input variant");
    } else if (it.digest() != *expect) {
      problems.push_back("output digest " + hex64(it.digest()) +
                         " != recorded " + hex64(*expect));
    }
    add(what, problems);
  }
  [[nodiscard]] int attempted() const noexcept { return attempted_; }
  [[nodiscard]] int failed() const noexcept { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

void printResult(const Tally& tally, const MetricList* metrics) {
  std::cout << "{\"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed();
  if (metrics != nullptr) std::cout << ", \"metrics\": " << metrics->json();
  std::cout << "}\n";
}

void printManifest(const Args& a, const Calibration& cal) {
  std::cout << "# manifest {\"revision\": \"" << a.revision
            << "\", \"source_hash\": \"" << a.source_hash
            << "\", \"compiler\": \"" << FACSBENCH_COMPILER
            << "\", \"build_type\": \"" << FACSBENCH_BUILD_TYPE
            << "\", \"flags\": \"" << FACSBENCH_FLAGS
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"calibration\": {\"kernel_ns\": " << jsonNumber(cal.kernel_ns)
            << ", \"threads\": " << cal.threads
            << ", \"effective_cores\": " << jsonNumber(cal.effective_cores)
            << "}}\n";
}

/// Peak resident set of this process in MiB: VmHWM, the high-water mark of
/// the address space exec() gave it. (getrusage's ru_maxrss would also
/// count the image of the parent that spawned this process.)
double peakRssMiB() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Set-up times sampled through a run.
class SetupSamples {
 public:
  void take(const Workload& w, int reps) {
    for (int r = 0; r < reps; ++r) samples_.push_back(w.measureSetup());
  }
  /// Component-wise medians; total() of the result is not the median
  /// total, so that is asked for separately.
  [[nodiscard]] SetupTimes median() const {
    return {pick(&SetupTimes::validate_s), pick(&SetupTimes::network_s),
            pick(&SetupTimes::controller_s)};
  }
  [[nodiscard]] double medianTotal() const {
    std::vector<double> v;
    for (const SetupTimes& s : samples_) v.push_back(s.total());
    return facsbench::median(v);
  }

 private:
  [[nodiscard]] double pick(double SetupTimes::*field) const {
    std::vector<double> v;
    for (const SetupTimes& s : samples_) v.push_back(s.*field);
    return facsbench::median(v);
  }
  std::vector<SetupTimes> samples_;
};

/// Millisecond gaps between consecutive window marks of one iteration.
void appendGaps(const Iteration& it, std::vector<double>& gaps_ms) {
  for (std::size_t i = 1; i < it.marks.size(); ++i) {
    gaps_ms.push_back(static_cast<double>(it.marks[i] - it.marks[i - 1]) *
                      1e-6);
  }
}

double eventsPerSecond(const Iteration& it) {
  return static_cast<double>(it.events()) / it.wall_s;
}

// ------------------------------------------------------------- end to end

int runEndToEnd(const Args& a, const Workload& w) {
  Tally tally;
  SetupSamples setup;
  setup.take(w, kSetupRepsBefore);

  // One untimed iteration first: caches fill and lazy set-up finishes.
  tally.addIteration("warm-up iteration", w, w.run({}), a.expect);

  std::vector<double> rates;
  std::vector<double> gaps_ms;
  const std::int64_t start = nowNs();
  for (std::uint64_t i = 1; secondsBetween(start, nowNs()) < a.seconds; ++i) {
    const Iteration it = w.run({.index = i});
    tally.addIteration("iteration " + std::to_string(i), w, it, a.expect);
    rates.push_back(eventsPerSecond(it));
    appendGaps(it, gaps_ms);
    setup.take(w, kSetupRepsBetween);
  }

  std::cout << "# " << rates.size() << " timed iterations, "
            << gaps_ms.size() << " window gaps\n";
  MetricList m;
  m.add("events_per_s", median(rates), "1/s");
  m.add("setup_s", setup.medianTotal(), "s");
  m.add("peak_rss_mb", peakRssMiB(), "MiB");
  m.add("window_ms_p50", quantile(gaps_ms, 0.5), "ms");
  m.add("window_ms_p90", quantile(gaps_ms, 0.9), "ms");
  printResult(tally, &m);
  return 0;
}

// ------------------------------------------------------------------ traced

const char* sourceName(Source s) {
  switch (s) {
    case Source::Measured:
      return "measured";
    case Source::Exact:
      return "exact";
    case Source::Derived:
      return "derived";
  }
  return "invalid";
}

/// Per-iteration aggregates of one traced iteration's spans.
struct SpanTotals {
  double decide_calls = 0.0;
  double decide_s = 0.0;
  double accepted = 0.0;
  double precompute_calls = 0.0;
  double precompute_s = 0.0;
  double barrier_s = 0.0;
  double facs_decides = 0.0;      ///< Decides FACS made (FLC2 each).
  double facs_precomputes = 0.0;  ///< Precomputes FACS made (FLC1 each).
  std::vector<double> decide_ns;
};

SpanTotals totalSpans(const std::vector<Span>& spans,
                      const std::vector<std::string>& policies) {
  SpanTotals t;
  const auto is_facs = [&](const Span& s) {
    return s.policy < policies.size() && policies[s.policy] == "FACS";
  };
  for (const Span& s : spans) {
    const double d = secondsBetween(s.start_ns, s.end_ns);
    switch (s.kind) {
      case SpanKind::Decide:
        t.decide_calls += 1.0;
        t.decide_s += d;
        t.accepted += s.accepted ? 1.0 : 0.0;
        t.decide_ns.push_back(d * 1e9);
        if (is_facs(s)) t.facs_decides += 1.0;
        break;
      case SpanKind::Precompute:
        t.precompute_calls += 1.0;
        t.precompute_s += d;
        if (is_facs(s)) t.facs_precomputes += 1.0;
        break;
      case SpanKind::Barrier:
        t.barrier_s += d;
        break;
      default:
        break;
    }
  }
  return t;
}

/// Per-iteration engine figures read from the public Metrics.
struct EngineTotals {
  double prepare_s = 0.0;
  double local_s = 0.0;
  double commit_s = 0.0;
  double lanes_s = 0.0;
  double lane_imbalance = 1.0;
  double events = 0.0;
  double new_requests = 0.0;
  double handoff_requests = 0.0;
  double completed = 0.0;
  double admitted = 0.0;
  double reservations_posted = 0.0;
  double reservations_dropped = 0.0;
  double runs = 0.0;
};

EngineTotals totalEngine(const Iteration& it) {
  EngineTotals e;
  std::vector<double> imbalance;
  for (const sim::Metrics& m : it.runs) {
    e.prepare_s += m.prepare_phase_s;
    e.local_s += m.local_phase_s;
    e.commit_s += m.commit_phase_s;
    e.lanes_s += m.commit_lane_s;
    e.events += static_cast<double>(m.engine_events);
    e.new_requests += m.new_requests;
    e.handoff_requests += m.handoff_requests;
    e.completed += m.completed;
    e.admitted += m.new_accepted + m.handoff_accepted;
    e.reservations_posted += static_cast<double>(m.reservations_posted);
    e.reservations_dropped += static_cast<double>(m.reservations_dropped);
    e.runs += 1.0;
    if (m.lane_commit_s.size() > 1) {
      double max = 0.0;
      double sum = 0.0;
      for (const double s : m.lane_commit_s) {
        max = std::max(max, s);
        sum += s;
      }
      imbalance.push_back(ratio(max * m.lane_commit_s.size(), sum));
    }
  }
  if (!imbalance.empty()) e.lane_imbalance = median(imbalance);
  return e;
}

int runTraced(const Args& a, const Workload& w) {
  Tally tally;
  SetupSamples setup_samples;
  setup_samples.take(w, kSetupRepsBefore);
  const std::vector<ProbeResult> probes = runProbes(w, a.seed);

  const Iteration reference = w.run({});
  tally.addIteration("warm-up iteration", w, reference, a.expect);

  std::vector<Iteration> plain;
  std::vector<double> plain_rates;
  std::vector<double> traced_rates;
  std::vector<SpanTotals> traced;
  std::vector<Span> spans;
  std::vector<std::string> policy_names;
  const std::int64_t start = nowNs();
  // Untraced and traced iterations alternate, so both see the same host.
  for (std::uint64_t i = 1;
       traced.empty() || secondsBetween(start, nowNs()) < a.seconds; ++i) {
    Iteration untraced_it = w.run({.index = 2 * i - 1});
    tally.addIteration("iteration " + std::to_string(2 * i - 1), w,
                       untraced_it, a.expect);
    plain_rates.push_back(eventsPerSecond(untraced_it));
    plain.push_back(std::move(untraced_it));

    const Iteration traced_it = w.run({.traced = true, .index = 2 * i});
    std::vector<std::string> problems = w.check(traced_it);
    if (traced_it.det != reference.det) {
      problems.push_back(
          "traced Metrics::toJson() differs from the untraced run");
    }
    tally.add("traced iteration " + std::to_string(2 * i), problems);
    traced_rates.push_back(eventsPerSecond(traced_it));
    std::vector<Span> these = SpanLog::instance().drain();
    policy_names = SpanLog::instance().policies();
    traced.push_back(totalSpans(these, policy_names));
    if (traced.size() <= kWrittenTracedIterations) {
      spans.insert(spans.end(), these.begin(), these.end());
    }
    setup_samples.take(w, kSetupRepsBetween);
  }
  const SetupTimes setup = setup_samples.median();
  if (!a.trace_out.empty()) {
    if (writeSpans(spans, policy_names, a.trace_out)) {
      std::cout << "# spans: " << spans.size() << " written to "
                << a.trace_out << '\n';
    } else {
      std::cout << "# spans: could not write " << a.trace_out << '\n';
    }
  }

  // Medians over the iterations of each kind.
  const auto med = [](const auto& items, auto field) {
    std::vector<double> v;
    for (const auto& item : items) v.push_back(field(item));
    return median(v);
  };
  std::vector<EngineTotals> engines;
  for (const Iteration& it : plain) engines.push_back(totalEngine(it));
  const auto eng = [&](double EngineTotals::*f) {
    return med(engines, [f](const EngineTotals& e) { return e.*f; });
  };
  const auto spn = [&](double SpanTotals::*f) {
    return med(traced, [f](const SpanTotals& t) { return t.*f; });
  };
  const double wall_s = med(plain, [](const Iteration& it) { return it.wall_s; });
  std::vector<double> decide_ns;
  for (const SpanTotals& t : traced) {
    decide_ns.insert(decide_ns.end(), t.decide_ns.begin(), t.decide_ns.end());
  }

  MetricList m;
  // engine (sim/simulator): the public Metrics phase fields.
  m.add("engine.prepare_s", eng(&EngineTotals::prepare_s), "s");
  m.add("engine.local_s", eng(&EngineTotals::local_s), "s");
  m.add("engine.commit_s", eng(&EngineTotals::commit_s), "s");
  m.add("engine.lanes_s", eng(&EngineTotals::lanes_s), "s");
  m.add("engine.lane_imbalance", eng(&EngineTotals::lane_imbalance), "ratio");
  m.add("engine.events", eng(&EngineTotals::events), "count", Source::Exact);
  // reservations (sim/reservation).
  const double posted = eng(&EngineTotals::reservations_posted);
  m.add("engine.reservations_posted", posted, "count", Source::Exact);
  m.add("engine.reservations_dropped_frac",
        ratio(eng(&EngineTotals::reservations_dropped), posted), "ratio",
        Source::Exact);
  // policy (cellular/admission) through the decorator.
  const double decides = spn(&SpanTotals::decide_calls);
  m.add("policy.decide_calls", decides, "count", Source::Exact);
  m.add("policy.decide_s", spn(&SpanTotals::decide_s), "s");
  m.add("policy.decide_ns_p50", median(decide_ns), "ns");
  m.add("policy.precompute_calls", spn(&SpanTotals::precompute_calls), "count",
        Source::Exact);
  m.add("policy.precompute_s", spn(&SpanTotals::precompute_s), "s");
  m.add("policy.barrier_s", spn(&SpanTotals::barrier_s), "s");
  m.add("policy.accept_frac", ratio(spn(&SpanTotals::accepted), decides),
        "ratio", Source::Exact);

  // Probes with their call counts: exact where the decorator counted
  // them, derived from Metrics and the config otherwise.
  const double fixes = w.fixCount();
  const double new_requests = eng(&EngineTotals::new_requests);
  // Local mobility steps: engine events that are neither decisions nor
  // call ends (crossings included).
  const double moves =
      std::max(0.0, eng(&EngineTotals::events) - new_requests -
                        eng(&EngineTotals::completed));
  const double walk_steps = fixes > 0 ? new_requests * (fixes - 1.0) : 0.0;
  const bool serving = w.inputs().id == WorkloadId::MetroServe;
  double windows = 0.0;  // JSONL records per iteration
  if (serving) {
    windows = med(plain, [](const Iteration& it) {
      return static_cast<double>(it.marks.size());
    });
  }
  struct Count {
    double calls;
    Source source;
  };
  const std::map<std::string, Count> counts = {
      {"rng.make", {new_requests + eng(&EngineTotals::runs), Source::Derived}},
      // Two per GPS fix (the 2-D error), one per turn step.
      {"rng.normal",
       {2.0 * new_requests * fixes + walk_steps + moves, Source::Derived}},
      {"mobility.step", {walk_steps + moves, Source::Derived}},
      {"gps.track", {fixes > 0 ? new_requests : 0.0, Source::Derived}},
      // End of each tracking walk, each local step, each crossing commit.
      {"network.cell_at",
       {(fixes > 0 ? new_requests : 0.0) + moves +
            eng(&EngineTotals::handoff_requests),
        Source::Derived}},
      {"fuzzy.flc1", {spn(&SpanTotals::facs_precomputes), Source::Exact}},
      {"fuzzy.flc2", {spn(&SpanTotals::facs_decides), Source::Exact}},
      {"fuzzy.batch", {spn(&SpanTotals::facs_decides), Source::Exact}},
      {"ledger.alloc_release", {eng(&EngineTotals::admitted), Source::Derived}},
      {"serve.record", {windows, Source::Exact}},
  };
  for (const ProbeResult& p : probes) {
    const std::string layer = p.name.substr(0, p.name.size() - 3);  // "_ns"
    const Count& c = counts.at(layer);
    m.add(p.name, p.ns, "ns");
    m.add(layer + "_calls", c.calls, "count", c.source);
    // Share of the untraced iteration's wall time: calls x ns / wall.
    m.add(layer + "_share", c.calls * p.ns * 1e-9 / wall_s, "ratio", c.source);
  }

  // serve (serve/service, call_pool, ring_buffer).
  m.add("serve.write_s", med(plain, [](const Iteration& it) { return it.write_s; }),
        "s");
  m.add("serve.bytes",
        med(plain,
            [](const Iteration& it) {
              return static_cast<double>(it.jsonl.size());
            }),
        "B", Source::Exact);
  for (const char* key : {"pool_grow_events", "ring_spills", "ring_high_water"}) {
    m.add(std::string{"serve."} + key,
          static_cast<double>(reference.lastRecord(key)), "count",
          Source::Exact);
  }
  // setup.
  m.add("setup.network_s", setup.network_s, "s");
  m.add("setup.controller_s", setup.controller_s, "s");
  m.add("setup.validate_s", setup.validate_s, "s");
  // trace: what the decorator and spans cost.
  m.add("trace.overhead_frac", 1.0 - median(traced_rates) / median(plain_rates),
        "ratio");

  std::cout << "# " << plain.size() << " untraced and " << traced.size()
            << " traced iterations; untraced wall " << wall_s << " s\n";
  for (const Metric& metric : m.items()) {
    std::printf("# %-34s %14.6g %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), sourceName(metric.source));
  }
  printResult(tally, &m);
  return 0;
}

// ------------------------------------------------------------ cross checks

int runChecks(const Args& a, const Workload& w) {
  Tally tally;
  switch (w.inputs().id) {
    case WorkloadId::Metro1k:
      tally.addIteration("plain batch runSimulation", w,
                         w.run({.batch_reference = true}), a.expect);
      break;
    case WorkloadId::MetroServe:
      tally.addIteration("batch runSimulation of the served config", w,
                         w.run({.batch_reference = true}), a.expect);
      tally.addIteration("serveSimulation at shards=4", w,
                         w.run({.shards = 4}), a.expect);
      break;
    case WorkloadId::PaperSweep:
      tally.addIteration("runSweep at threads=2", w,
                         w.run({.sweep_threads = 2}), a.expect);
      break;
  }
  printResult(tally, nullptr);
  return 0;
}

}  // namespace
}  // namespace facsbench

int main(int argc, char** argv) {
  using namespace facsbench;
  const Args a = parseArgs(argc, argv);
  try {
    const Workload w{*parseWorkload(a.workload), a.seed};
    std::cout << "# workload " << w.name() << ", seed " << a.seed
              << ", input variant " << w.inputs().variant << '\n';
    if (a.mode == "digest") {
      std::cout << "{\"digest\": \"" << hex64(w.run({}).digest()) << "\"}\n";
      return 0;
    }
    if (a.mode == "check") return runChecks(a, w);
    const Calibration cal = calibrate();
    printManifest(a, cal);
    return a.trace ? runTraced(a, w) : runEndToEnd(a, w);
  } catch (const std::exception& e) {
    std::cerr << "facs_bench: " << e.what() << '\n';
    return 1;
  }
}
