#include "workloads.hpp"

#include <cstdlib>
#include <cstring>
#include <ostream>
#include <streambuf>

#include "cellular/network.hpp"
#include "common.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace facsbench {

namespace cel = facs::cellular;
namespace sim = facs::sim;

std::optional<WorkloadId> parseWorkload(std::string_view name) {
  for (const WorkloadId id :
       {WorkloadId::Metro1k, WorkloadId::PaperSweep, WorkloadId::MetroServe}) {
    if (workloadName(id) == name) return id;
  }
  return std::nullopt;
}

std::string_view workloadName(WorkloadId id) noexcept {
  switch (id) {
    case WorkloadId::Metro1k:
      return "metro-1k";
    case WorkloadId::PaperSweep:
      return "paper-sweep";
    case WorkloadId::MetroServe:
      return "metro-serve";
  }
  return "invalid";
}

// ------------------------------------------------------------------ inputs

namespace {

/// The metro population shared by metro-1k and metro-serve: 1.5 km cells,
/// 10-60 km/h users tracked for 30 s with a fix every 2 s, 5 s mobility
/// steps with handoffs.
sim::SimulationConfig metroBase(int rings, std::uint64_t seed) {
  sim::SimulationConfig cfg;
  cfg.rings = rings;
  cfg.cell_radius_km = 1.5;
  cfg.capacity_bu = 40;
  cfg.arrivals = sim::ArrivalProcess::Poisson;
  cfg.enable_handoffs = true;
  cfg.mobility_update_s = 5.0;
  cfg.seed = seed;
  cfg.scenario.speed_min_kmh = 10.0;
  cfg.scenario.speed_max_kmh = 60.0;
  cfg.scenario.distance_min_km = 0.0;
  cfg.scenario.distance_max_km = 1.5;
  cfg.scenario.tracking_window_s = 30.0;
  cfg.scenario.gps_fix_period_s = 2.0;
  return cfg;
}

Inputs metro1k(std::uint64_t seed) {
  Inputs in;
  in.config = metroBase(18, seed);  // 1,027 cells
  in.config.total_requests = 40000;
  in.config.arrival_window_s = 1200.0;
  in.config.shards = 1;
  in.config.commit_groups = 1;
  in.policies = {"guard:8"};
  in.metrics_every_s = 30.0;
  return in;
}

Inputs paperSweep(std::uint64_t seed) {
  Inputs in;
  // The Fig. 10 shape: the paper's population on the 7-cell cluster, the
  // arrival window compressed so per-cell load matches the single-cell
  // figures.
  in.config.rings = 1;
  in.config.scenario = sim::fig10Scenario();
  in.config.arrival_window_s = 600.0 / 7.0;
  in.policies = {"facs", "scc:theta=0.85,sigma=8,growth=0,intervals=3"};
  in.sweep.title = "paper-sweep";
  for (int x = 10; x <= 200; x += 10) in.sweep.xs.push_back(x);
  in.sweep.replications = 20;
  in.sweep.base_seed = seed;
  in.sweep.threads = 1;
  return in;
}

Inputs metroServe(std::uint64_t seed) {
  Inputs in;
  in.config = metroBase(8, seed);  // 217 cells
  // 20 calls/s: always-on mode keeps the Poisson rate
  // total_requests / arrival_window_s running until serve_duration_s.
  in.config.total_requests = 72000;
  in.config.arrival_window_s = 3600.0;
  // One shard: the four commit groups, reservations, barrier drains and
  // repartitions all run, but serially. On a host whose virtual CPUs are
  // time-shared, the parallel engine's throughput varied 4x between runs;
  // the check process still runs the sharded engine against the same
  // digest (shard invariance).
  in.config.shards = 1;
  in.config.commit_groups = 4;
  in.config.partition = sim::PartitionStrategy::Weighted;
  in.config.repartition_every_s = 300.0;
  // Stadium-style hotspot: the centre cell spawns 12x with a video-heavy
  // mix, its inner ring 2x.
  sim::CellOverride centre;
  centre.cell = 0;
  centre.arrival_scale = 12.0;
  centre.mix = cel::TrafficMix{0.2, 0.3, 0.5};
  in.config.cell_overrides.push_back(centre);
  for (cel::CellId c = 1; c <= 6; ++c) {
    sim::CellOverride ring;
    ring.cell = c;
    ring.arrival_scale = 2.0;
    in.config.cell_overrides.push_back(ring);
  }
  facs::serve::ScenarioMutation ramp;
  ramp.at_s = 1200.0;
  ramp.op = facs::serve::MutationOp::ArrivalScale;
  ramp.scale = 1.5;
  facs::serve::ScenarioMutation outage;
  outage.at_s = 1800.0;
  outage.op = facs::serve::MutationOp::Outage;
  outage.cell = 3;
  facs::serve::ScenarioMutation restore = outage;
  restore.at_s = 2400.0;
  restore.op = facs::serve::MutationOp::Restore;
  in.config.mutations = {ramp, outage, restore};
  in.policies = {"facs"};
  in.metrics_every_s = 30.0;
  in.serve_duration_s = 3600.0;
  return in;
}

}  // namespace

Inputs makeInputs(WorkloadId id, std::uint64_t seed) {
  const std::uint64_t variant = seed % kInputVariants;
  // Distinct, fixed simulator seeds per variant.
  const std::uint64_t sim_seed = 1 + variant;
  Inputs in;
  switch (id) {
    case WorkloadId::Metro1k:
      in = metro1k(sim_seed);
      break;
    case WorkloadId::PaperSweep:
      in = paperSweep(sim_seed);
      break;
    case WorkloadId::MetroServe:
      in = metroServe(sim_seed);
      break;
  }
  in.id = id;
  in.variant = variant;
  return in;
}

// --------------------------------------------------------------- iteration

std::uint64_t Iteration::digest() const { return fnv1a(det); }

std::uint64_t Iteration::events() const {
  std::uint64_t n = 0;
  for (const sim::Metrics& m : runs) n += m.engine_events;
  return n;
}

namespace {

/// The stream serveSimulation writes to. Keeps the text, marks the wall
/// clock at every record's '\n', and times each record's write from its
/// first byte to that newline (a WindowWrite span when traced). It has no
/// put area, so every write reaches xsputn/overflow.
class MarkingBuf final : public std::streambuf {
 public:
  MarkingBuf(Iteration& out, bool traced, std::uint64_t call,
             std::uint64_t parent)
      : out_{out}, traced_{traced}, call_{call}, parent_{parent} {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    put(&c, 1);
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    put(s, n);
    return n;
  }

 private:
  void put(const char* s, std::streamsize n) {
    if (line_start_ns_ == 0) line_start_ns_ = nowNs();
    out_.jsonl.append(s, static_cast<std::size_t>(n));
    if (std::memchr(s, '\n', static_cast<std::size_t>(n)) == nullptr) return;
    const std::int64_t end = nowNs();
    out_.marks.push_back(end);
    out_.write_s += secondsBetween(line_start_ns_, end);
    if (traced_) {
      Span span;
      span.id = SpanLog::instance().newId();
      span.parent = parent_;
      span.call = call_;
      span.kind = SpanKind::WindowWrite;
      span.start_ns = line_start_ns_;
      span.end_ns = end;
      SpanLog::instance().record(span);
    }
    line_start_ns_ = 0;
  }

  Iteration& out_;
  bool traced_;
  std::uint64_t call_;
  std::uint64_t parent_;
  std::int64_t line_start_ns_ = 0;
};

}  // namespace

Workload::Workload(WorkloadId id, std::uint64_t seed)
    : in_{makeInputs(id, seed)} {
  const cel::PolicyRuntime& runtime = cel::PolicyRuntime::defaultRuntime();
  for (const std::string& spec : in_.policies) {
    factories_.push_back(runtime.makeFactory(spec));
  }
}

Iteration Workload::run(const RunOptions& options) const {
  Iteration it;
  std::optional<ScopedSpan> iteration_span;
  std::optional<ScopedSpan> run_span;
  if (options.traced) {
    iteration_span.emplace(SpanKind::Iteration, options.index, 0);
    run_span.emplace(SpanKind::Run, options.index, iteration_span->id());
    SpanLog::instance().setScope(run_span->id(), options.index);
  }
  const std::uint64_t run_id = run_span ? run_span->id() : 0;

  sim::SimulationConfig cfg = in_.config;
  if (options.shards > 0) cfg.shards = options.shards;
  const bool windows = !options.batch_reference;

  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  switch (in_.id) {
    case WorkloadId::Metro1k: {
      const auto factory =
          instrumentFactory(factories_.front(), options.traced, nullptr);
      if (!windows) {
        t0 = nowNs();
        it.runs.push_back(sim::runSimulation(cfg, factory));
        t1 = nowNs();
        break;
      }
      // Marks only the windows of the loaded network: once arrivals stop,
      // the drain's windows shrink towards empty and would set the median.
      sim::ServiceHooks hooks;
      hooks.metrics_every_s = in_.metrics_every_s;
      hooks.on_window = [&it, open_s = cfg.arrival_window_s](
                            const sim::WindowSnapshot& w) {
        if (w.t1 <= open_s) it.marks.push_back(nowNs());
      };
      t0 = nowNs();
      it.runs.push_back(sim::runSimulation(cfg, factory, hooks));
      t1 = nowNs();
      break;
    }
    case WorkloadId::MetroServe: {
      const auto factory =
          instrumentFactory(factories_.front(), options.traced, nullptr);
      if (windows) {
        MarkingBuf buf{it, options.traced, options.index, run_id};
        std::ostream out{&buf};
        facs::serve::ServeOptions serve;
        serve.metrics_every_s = in_.metrics_every_s;
        serve.duration_s = in_.serve_duration_s;
        t0 = nowNs();
        it.runs.push_back(facs::serve::serveSimulation(cfg, factory, serve, out));
        t1 = nowNs();
      } else {
        sim::ServiceHooks hooks;
        hooks.serve_duration_s = in_.serve_duration_s;
        t0 = nowNs();
        it.runs.push_back(sim::runSimulation(cfg, factory, hooks));
        t1 = nowNs();
      }
      break;
    }
    case WorkloadId::PaperSweep: {
      FactoryStamps stamps;
      std::vector<sim::CurveSpec> curves;
      for (std::size_t i = 0; i < factories_.size(); ++i) {
        sim::CurveSpec curve;
        curve.label = in_.policies[i];
        curve.base = cfg;
        curve.make_controller =
            instrumentFactory(factories_[i], options.traced, &stamps);
        curves.push_back(std::move(curve));
      }
      sim::SweepSpec sweep = in_.sweep;
      if (options.sweep_threads > 0) sweep.threads = options.sweep_threads;
      t0 = nowNs();
      const sim::SweepResult result = sim::runSweep(sweep, curves);
      t1 = nowNs();
      it.marks = stamps.take();
      for (const sim::CurveResult& curve : result.curves) {
        for (const sim::PointResult& point : curve.points) {
          it.runs.insert(it.runs.end(), point.runs.begin(), point.runs.end());
        }
      }
      break;
    }
  }
  it.wall_s = secondsBetween(t0, t1);
  run_span.reset();
  if (options.traced) SpanLog::instance().setScope(0, 0);
  for (const sim::Metrics& m : it.runs) {
    it.det += m.toJson();
    it.det += '\n';
  }
  return it;
}

// ------------------------------------------------------------------ checks

namespace {

/// The numeric token after `"key": ` in one JSONL record, or empty.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\": ";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pattern.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end - begin);
}

long long integerField(std::string_view line, std::string_view key) {
  const std::string token{field(line, key)};
  return std::strtoll(token.c_str(), nullptr, 10);
}

void checkMetrics(const sim::Metrics& m, std::size_t run,
                  std::vector<std::string>& problems) {
  const auto fail = [&](const std::string& what) {
    problems.push_back("run " + std::to_string(run) + ": " + what);
  };
  if (m.new_accepted > m.new_requests) fail("new_accepted > new_requests");
  if (m.new_blocked > m.new_requests) fail("new_blocked > new_requests");
  if (m.handoff_accepted > m.handoff_requests) {
    fail("handoff_accepted > handoff_requests");
  }
  if (m.handoff_dropped > m.handoff_requests) {
    fail("handoff_dropped > handoff_requests");
  }
  if (m.reservations_admitted + m.reservations_dropped !=
      m.reservations_posted) {
    fail("reservations admitted + dropped != posted");
  }
  const double capacity_bu_s =
      static_cast<double>(m.total_capacity_bu) * m.observed_span_s;
  if (m.busy_bu_seconds < 0.0 ||
      m.busy_bu_seconds > capacity_bu_s * (1.0 + 1e-12)) {
    fail("busy BU*s outside [0, capacity x span]");
  }
  if (m.engine_events == 0) fail("no engine events");
}

/// The stream's records must add up to the returned Metrics: integer
/// deltas sum to the totals and the final record's cumulative fields are
/// the final values.
void checkStream(const Iteration& it, std::vector<std::string>& problems) {
  const sim::Metrics& m = it.runs.front();
  std::vector<std::string_view> lines;
  std::string_view text = it.jsonl;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    if (nl == std::string_view::npos) {
      problems.push_back("stream: unterminated last record");
      return;
    }
    lines.push_back(text.substr(0, nl));
    text.remove_prefix(nl + 1);
  }
  if (lines.size() < 2) {
    problems.push_back("stream: fewer than two window records");
    return;
  }
  if (lines.size() != it.marks.size()) {
    problems.push_back("stream: record count != newline marks");
  }
  const std::string_view last = lines.back();
  if (field(last, "final") != "true") {
    problems.push_back("stream: last record is not final");
  }
  const struct {
    const char* key;
    long long total;
  } sums[] = {
      {"new_requests", m.new_requests},
      {"new_accepted", m.new_accepted},
      {"new_blocked", m.new_blocked},
      {"handoff_requests", m.handoff_requests},
      {"handoff_accepted", m.handoff_accepted},
      {"handoff_dropped", m.handoff_dropped},
      {"completed", m.completed},
      {"engine_events", static_cast<long long>(m.engine_events)},
      {"reservations_posted", static_cast<long long>(m.reservations_posted)},
      {"outage_forced_drops", m.outage_forced_drops},
      {"mutations_applied", m.mutations_applied},
      {"repartitions", m.repartitions},
  };
  for (const auto& s : sums) {
    long long sum = 0;
    for (const std::string_view line : lines) sum += integerField(line, s.key);
    if (sum != s.total) {
      problems.push_back(std::string{"stream: "} + s.key +
                         " deltas do not sum to the final total");
    }
  }
  if (field(last, "busy_bu_seconds_cum") !=
          sim::shortestNumber(m.busy_bu_seconds) ||
      field(last, "observed_span_s_cum") !=
          sim::shortestNumber(m.observed_span_s)) {
    problems.push_back("stream: final cumulative doubles differ from Metrics");
  }
}

}  // namespace

long long Iteration::lastRecord(std::string_view key) const {
  std::string_view text = jsonl;
  if (text.empty()) return 0;
  text.remove_suffix(1);  // the last record's '\n'
  return integerField(text.substr(text.rfind('\n') + 1), key);
}

std::vector<std::string> Workload::check(const Iteration& it) const {
  std::vector<std::string> problems;
  const std::size_t expected_runs =
      in_.id == WorkloadId::PaperSweep
          ? in_.policies.size() * in_.sweep.xs.size() *
                static_cast<std::size_t>(in_.sweep.replications)
          : 1;
  if (it.runs.size() != expected_runs) {
    problems.push_back("expected " + std::to_string(expected_runs) +
                       " runs, got " + std::to_string(it.runs.size()));
    return problems;
  }
  for (std::size_t i = 0; i < it.runs.size(); ++i) {
    checkMetrics(it.runs[i], i, problems);
  }
  if (in_.id == WorkloadId::MetroServe && !it.jsonl.empty()) {
    checkStream(it, problems);
  }
  return problems;
}

// ------------------------------------------------------------------- setup

SetupTimes Workload::measureSetup() const {
  std::vector<cel::CellCapacityOverride> capacities;
  for (const sim::CellOverride& o : in_.config.cell_overrides) {
    if (o.capacity_bu) capacities.emplace_back(o.cell, *o.capacity_bu);
  }
  const cel::PolicyRuntime& runtime = cel::PolicyRuntime::defaultRuntime();
  SetupTimes t;
  for (const std::string& spec : in_.policies) {
    const std::int64_t t0 = nowNs();
    sim::validateConfig(in_.config);
    const std::int64_t t1 = nowNs();
    const cel::HexNetwork net{in_.config.rings, in_.config.cell_radius_km,
                              in_.config.capacity_bu, capacities};
    const std::int64_t t2 = nowNs();
    const auto controller = runtime.makeFactory(spec)(net);
    const std::int64_t t3 = nowNs();
    t.validate_s += secondsBetween(t0, t1);
    t.network_s += secondsBetween(t1, t2);
    t.controller_s += secondsBetween(t2, t3);
  }
  return t;
}

int Workload::fixCount() const noexcept {
  const sim::ScenarioParams& s = in_.config.scenario;
  if (s.tracking_window_s <= 0.0) return 0;
  return static_cast<int>(s.tracking_window_s / s.gps_fix_period_s) + 1;
}

}  // namespace facsbench
