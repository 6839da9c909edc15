#include "cli/cli.hpp"

#include <optional>
#include <sstream>

#include "cellular/policy_registry.hpp"
#include "sim/scenario_file.hpp"

namespace facs::sim {

namespace {

double parseDouble(const std::string& value, const std::string& flag) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw CliError("flag " + flag + ": expected a number, got '" + value + "'");
  }
}

int parseInt(const std::string& value, const std::string& flag) {
  const double v = parseDouble(value, flag);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) {
    throw CliError("flag " + flag + ": expected an integer, got '" + value +
                   "'");
  }
  return i;
}

/// "lo[:hi]" -> (lo, hi); a single value means lo == hi.
std::pair<double, double> parseRange(const std::string& value,
                                     const std::string& flag) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    const double v = parseDouble(value, flag);
    return {v, v};
  }
  return {parseDouble(value.substr(0, colon), flag),
          parseDouble(value.substr(colon + 1), flag)};
}

std::vector<int> parseIntList(const std::string& value,
                              const std::string& flag) {
  std::vector<int> out;
  std::stringstream ss{value};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parseInt(item, flag));
  }
  if (out.empty()) throw CliError("flag " + flag + ": empty list");
  return out;
}

/// Validates a policy spec against the runtime at parse time, so a typo
/// fails before any simulation starts.
std::string parsePolicySpec(const cellular::PolicyRuntime& runtime,
                            const std::string& value) {
  try {
    (void)runtime.makeFactory(value);
  } catch (const cellular::PolicySpecError& e) {
    throw CliError(e.what());
  }
  return value;
}

}  // namespace

CliOptions parseCli(const std::vector<std::string>& args,
                    const cellular::PolicyRuntime& runtime,
                    const ScenarioCatalog& catalog) {
  CliOptions opt;
  std::size_t i = 0;
  const auto next = [&](const std::string& flag) -> std::string {
    if (i + 1 >= args.size()) throw CliError("flag " + flag + ": missing value");
    return args[++i];
  };

  // The scenario — catalogued name or file — is the base the other flags
  // override, so resolve it first regardless of where it appears on the
  // command line. Every occurrence is validated; the last one wins. A
  // scenario also carries its default policy, which an explicit --policy
  // (handled below) overrides.
  for (std::size_t j = 0; j + 1 < args.size(); ++j) {
    if (args[j] == "--scenario") {
      try {
        const ScenarioSpec& spec = catalog.at(args[j + 1]);
        opt.scenario = spec.name;
        opt.scenario_summary = spec.summary;
        opt.scenario_file.clear();
        opt.config = spec.config;
        opt.policy = spec.policy;
      } catch (const ScenarioError& e) {
        throw CliError(e.what());
      }
    } else if (args[j] == "--scenario-file") {
      try {
        const ScenarioSpec spec = loadScenarioFile(args[j + 1], runtime);
        opt.scenario = spec.name;
        opt.scenario_summary = spec.summary;
        opt.scenario_file = args[j + 1];
        opt.config = spec.config;
        opt.policy = spec.policy;
      } catch (const ScenarioFileError& e) {
        throw CliError(e.what());
      }
    }
  }

  // Legacy shorthands, folded into the policy spec after the loop.
  std::optional<int> guard_bu;
  std::optional<double> facs_threshold;

  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      opt.help = true;
    } else if (a == "--list-policies") {
      opt.list_policies = true;
    } else if (a == "--list-scenarios") {
      opt.list_scenarios = true;
    } else if (a == "--policy") {
      opt.policy = parsePolicySpec(runtime, next(a));
    } else if (a == "--scenario" || a == "--scenario-file") {
      (void)next(a);  // already applied above
    } else if (a == "--dump-scenario") {
      opt.dump_scenario = next(a);
      if (opt.dump_scenario != "-") {  // "-" = the composed run itself
        try {
          (void)catalog.at(opt.dump_scenario);  // throws with known names
        } catch (const ScenarioError& e) {
          throw CliError(e.what());
        }
      }
    } else if (a == "--explain") {
      opt.explain = true;
      opt.config.explain = true;
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--requests") {
      opt.config.total_requests = parseInt(next(a), a);
    } else if (a == "--window") {
      opt.config.arrival_window_s = parseDouble(next(a), a);
    } else if (a == "--seed") {
      opt.config.seed = static_cast<std::uint64_t>(parseInt(next(a), a));
    } else if (a == "--rings") {
      opt.config.rings = parseInt(next(a), a);
    } else if (a == "--cell-radius") {
      opt.config.cell_radius_km = parseDouble(next(a), a);
    } else if (a == "--capacity") {
      opt.config.capacity_bu = parseInt(next(a), a);
    } else if (a == "--speed") {
      const auto [lo, hi] = parseRange(next(a), a);
      opt.config.scenario.speed_min_kmh = lo;
      opt.config.scenario.speed_max_kmh = hi;
    } else if (a == "--angle") {
      const auto [mean, sigma] = parseRange(next(a), a);
      opt.config.scenario.angle_mean_deg = mean;
      opt.config.scenario.angle_sigma_deg =
          sigma == mean ? 0.0 : sigma;  // single value = exact angle
    } else if (a == "--distance") {
      const auto [lo, hi] = parseRange(next(a), a);
      opt.config.scenario.distance_min_km = lo;
      opt.config.scenario.distance_max_km = hi;
    } else if (a == "--tracking-window") {
      opt.config.scenario.tracking_window_s = parseDouble(next(a), a);
    } else if (a == "--gps-error") {
      opt.config.scenario.gps_error_m = parseDouble(next(a), a);
    } else if (a == "--no-gps") {
      opt.config.scenario.gps_error_m.reset();
    } else if (a == "--poisson") {
      opt.config.arrivals = ArrivalProcess::Poisson;
    } else if (a == "--warmup") {
      opt.config.warmup_s = parseDouble(next(a), a);
    } else if (a == "--handoffs") {
      opt.config.enable_handoffs = true;
    } else if (a == "--shards") {
      const int shards = parseInt(next(a), a);
      if (shards < 1 || shards > kMaxShards) {
        throw CliError("flag --shards: must be in [1, " +
                       std::to_string(kMaxShards) + "], got " +
                       std::to_string(shards));
      }
      opt.config.shards = shards;
    } else if (a == "--commit-groups") {
      const int groups = parseInt(next(a), a);
      if (groups < 1 || groups > kMaxShards) {
        throw CliError("flag --commit-groups: must be in [1, " +
                       std::to_string(kMaxShards) + "], got " +
                       std::to_string(groups));
      }
      opt.config.commit_groups = groups;
    } else if (a == "--partition") {
      const std::string kind = next(a);
      if (kind == "contiguous") {
        opt.config.partition = PartitionStrategy::Contiguous;
      } else if (kind == "weighted") {
        opt.config.partition = PartitionStrategy::Weighted;
      } else {
        throw CliError("flag --partition: must be 'contiguous' or "
                       "'weighted', got '" +
                       kind + "'");
      }
    } else if (a == "--repartition-every") {
      opt.config.repartition_every_s = parseDouble(next(a), a);
      if (opt.config.repartition_every_s < 0.0) {
        throw CliError("flag --repartition-every: must be >= 0, got " +
                       std::to_string(opt.config.repartition_every_s));
      }
    } else if (a == "--serve") {
      opt.serve = true;
    } else if (a == "--metrics-every") {
      opt.metrics_every_s = parseDouble(next(a), a);
      if (opt.metrics_every_s < 0.0) {
        throw CliError("flag --metrics-every: must be >= 0, got " +
                       std::to_string(opt.metrics_every_s));
      }
    } else if (a == "--serve-duration") {
      opt.serve_duration_s = parseDouble(next(a), a);
      if (opt.serve_duration_s < 0.0) {
        throw CliError("flag --serve-duration: must be >= 0, got " +
                       std::to_string(opt.serve_duration_s));
      }
      opt.serve = true;  // a duration only makes sense when streaming
    } else if (a == "--guard-bu") {
      guard_bu = parseInt(next(a), a);
    } else if (a == "--facs-threshold") {
      facs_threshold = parseDouble(next(a), a);
    } else if (a == "--sweep") {
      opt.sweep_xs = parseIntList(next(a), a);
    } else if (a == "--reps") {
      opt.replications = parseInt(next(a), a);
    } else if (a == "--threads") {
      opt.threads = parseInt(next(a), a);
    } else if (a == "--csv") {
      opt.csv = true;
    } else {
      throw CliError("unknown flag '" + a + "' (try --help)");
    }
  }

  // Legacy shorthands: `--policy guard --guard-bu 12` means `guard:12`,
  // `--policy facs --facs-threshold 0.25` means `facs:0.25`. They only
  // apply to a bare spec — an explicit parameterized spec wins.
  if (guard_bu && opt.policy == "guard") {
    opt.policy = parsePolicySpec(runtime, "guard:" + std::to_string(*guard_bu));
  }
  if (facs_threshold && opt.policy == "facs") {
    std::ostringstream os;
    os << "facs:tau=" << *facs_threshold;
    opt.policy = parsePolicySpec(runtime, os.str());
  }
  return opt;
}

CliOptions parseCli(const std::vector<std::string>& args) {
  return parseCli(args, cellular::PolicyRuntime::defaultRuntime(),
                  ScenarioCatalog::builtins());
}

std::string cliUsage(const cellular::PolicyRuntime& runtime,
                     const ScenarioCatalog& catalog) {
  std::ostringstream os;
  os << R"(facs_cli - run FACS / baseline call-admission simulations

usage: facs_cli [flags]

policy (--policy SPEC, default from the scenario, else "facs"):
  A spec is a registered policy name plus optional inline parameters:
  "facs", "guard:8", "threshold:38,30,20", "facs:tau=0.25,ops=prod".
  Registered policies:
)" << runtime.describeAll()
     << R"(  --guard-bu N          legacy shorthand for --policy guard:N
  --facs-threshold T    legacy shorthand for --policy facs:tau=T
  --list-policies       print the policy registry and exit

scenario (--scenario NAME or --scenario-file PATH overrides the defaults
below, then flags override the scenario):
)" << catalog.describeAll()
     << R"(  --scenario-file PATH  run a scenario file (see --dump-scenario
                        for the format; README "Scenario files")
  --dump-scenario NAME  print a scenario as a scenario file and exit;
                        NAME "-" dumps the composed run (base + flags)
  --list-scenarios      print the scenario catalog and exit

workload:
  --requests N          requesting connections (default 50)
  --window S            arrival window seconds (default 600)
  --poisson             Poisson arrivals instead of a uniform burst
  --warmup S            exclude the first S seconds from metrics
  --speed LO[:HI]       user speed km/h (default 0:120)
  --angle MEAN[:SIGMA]  heading deviation deg; single value = exact
  --distance LO[:HI]    distance to BS km (default 0:10)
  --tracking-window S   GPS observation before the decision (default 30)
  --gps-error M         GPS 1-sigma error metres (default 10)
  --no-gps              noiseless ground-truth snapshots

network:
  --rings N             hex rings around the centre cell (default 0)
  --cell-radius KM      hex circumradius (default 10)
  --capacity BU         per-cell bandwidth units (default 40)
  --handoffs            move users between cells while in call

run:
  --seed N              RNG seed (default 1)
  --shards N            worker shards for one run (default from scenario;
                        results are bit-identical at any shard count)
  --commit-groups N     commit lanes for the two-level commit (default 1 =
                        one serialized commit phase, bit-identical to the
                        ungrouped engine; N>1 needs a cell-local policy
                        and changes cross-group visibility — see README
                        "Commit groups & reservations"; deterministic at
                        any shard count)
  --partition NAME      cell-to-lane mapping for commit groups:
                        'contiguous' (default; near-equal-size id ranges,
                        bit-identical to the historical engine) or
                        'weighted' (near-equal spawn-weight ranges —
                        arrival_scale x mean mix demand — so hotspot
                        cells stop overloading one lane; seed-stable and
                        shard-invariant)
  --repartition-every S weighted partition only: re-draw the group
                        boundaries every S simulated seconds from the
                        observed per-cell committed-event counts (0 =
                        never; deterministic — epochs land on barriers)
  --explain             decide with rationales on (identical decisions;
                        truncated rationales are counted and warned about)
  --serve               streaming service mode: one JSON Lines record per
                        metrics window on stdout (window deltas, cumulative
                        state, call-pool / ring-buffer stats), final line
                        carries the batch-identical totals — see README
                        "Streaming service mode"
  --metrics-every S     streaming emission period, simulated seconds
                        (default 60; 0 = a record at every barrier)
  --serve-duration S    always-on mode: keep Poisson arrivals running
                        until simulated time S, then drain (implies
                        --serve; requires --poisson)
  --sweep X1,X2,...     sweep total_requests and print a table
  --reps N              replications per sweep point (default 5)
  --threads N           sweep worker threads (default: hardware); sweeps
                        budget threads*shards against the machine
  --csv                 CSV output for sweeps
  --json                metrics as JSON; with --sweep, one document with a
                        full metrics object per (curve, x, replication) so
                        CI can diff whole figures (diffable — the CI
                        round-trip gate compares these byte for byte)
)";
  return os.str();
}

std::string cliUsage() {
  return cliUsage(cellular::PolicyRuntime::defaultRuntime(),
                  ScenarioCatalog::builtins());
}

ControllerFactory makeFactory(const CliOptions& options,
                              const cellular::PolicyRuntime& runtime) {
  try {
    return runtime.makeFactory(options.policy);
  } catch (const cellular::PolicySpecError& e) {
    throw CliError(e.what());
  }
}

ControllerFactory makeFactory(const CliOptions& options) {
  return makeFactory(options, cellular::PolicyRuntime::defaultRuntime());
}

}  // namespace facs::sim
