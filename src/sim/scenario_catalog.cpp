#include "sim/scenario_catalog.hpp"

#include <sstream>

#include "sim/scenario_file.hpp"

namespace facs::sim {

namespace {

ScenarioSpec paperSingleCell() {
  ScenarioSpec s;
  s.name = "paper-single-cell";
  s.summary =
      "The paper's Section 4 evaluation: one 40 BU cell of 10 km, mixed "
      "60/30/10 traffic, speeds 0-120 km/h, GPS-tracked decisions.";
  s.config = SimulationConfig{};  // the defaults *are* the paper's setup
  return s;
}

ScenarioSpec urbanWalkers() {
  ScenarioSpec s;
  s.name = "urban-walkers";
  s.summary =
      "Downtown micro-cell cluster at lunch hour: slow erratic pedestrians "
      "plus a vehicular minority drifting between 7 small cells; the "
      "paper's hard-to-predict population, sharded per cell group.";
  s.config.rings = 1;               // a block of 7 downtown micro-cells
  s.config.cell_radius_km = 1.5;
  s.config.enable_handoffs = true;  // window shoppers do cross streets
  s.config.mobility_update_s = 10.0;
  s.config.shards = 4;
  s.config.total_requests = 60;
  s.config.arrival_window_s = 600.0;
  s.config.scenario.speed_min_kmh = 2.0;
  s.config.scenario.speed_max_kmh = 25.0;   // walkers and cyclists
  s.config.scenario.angle_sigma_deg = 45.0; // downtown grid: nobody walks straight
  s.config.scenario.distance_min_km = 0.0;
  s.config.scenario.distance_max_km = 1.5;  // spawn inside the home cell
  s.config.scenario.turn.sigma_max_deg = 60.0;  // window shopping
  s.config.scenario.mix = cellular::TrafficMix{0.50, 0.40, 0.10};
  return s;
}

ScenarioSpec highway() {
  ScenarioSpec s;
  s.name = "highway";
  s.summary =
      "7 micro-cells over a fast corridor: constant handoffs, dropping "
      "probability is the metric that matters.";
  s.config.rings = 1;
  s.config.cell_radius_km = 2.0;  // micro-cells: crossings every couple minutes
  s.config.total_requests = 150;
  s.config.arrival_window_s = 400.0;
  s.config.enable_handoffs = true;
  s.config.mobility_update_s = 5.0;
  s.config.scenario.speed_min_kmh = 70.0;
  s.config.scenario.speed_max_kmh = 130.0;
  s.config.scenario.angle_sigma_deg = 30.0;
  s.config.scenario.distance_min_km = 0.0;
  s.config.scenario.distance_max_km = 2.0;
  s.config.scenario.tracking_window_s = 10.0;
  s.config.scenario.gps_fix_period_s = 2.0;
  s.config.scenario.turn.sigma_max_deg = 10.0;  // cars follow the road
  return s;
}

ScenarioSpec stadiumBurst() {
  ScenarioSpec s;
  s.name = "stadium-burst";
  s.summary =
      "Flash crowd after a match: thousands of near-stationary users over "
      "the stadium cell and its 6 precinct cells, Poisson arrivals, "
      "warm-up excluded (steady state); the sharded engine's stress load.";
  s.config.rings = 1;               // stadium mast + surrounding precinct
  s.config.cell_radius_km = 2.0;
  s.config.enable_handoffs = true;  // the crowd drains outward on foot
  s.config.mobility_update_s = 10.0;
  s.config.shards = 4;
  s.config.total_requests = 3000;
  s.config.arrival_window_s = 3000.0;  // ~1 request/s against 40 BU cells
  s.config.arrivals = ArrivalProcess::Poisson;
  s.config.warmup_s = 600.0;  // measure after the crowd has built up
  s.config.scenario.speed_min_kmh = 0.0;
  s.config.scenario.speed_max_kmh = 6.0;     // people on foot
  s.config.scenario.angle_sigma_deg = 90.0;  // milling around
  s.config.scenario.distance_min_km = 0.0;
  s.config.scenario.distance_max_km = 2.0;   // everyone near a mast
  s.config.scenario.tracking_window_s = 10.0;
  s.config.scenario.gps_fix_period_s = 5.0;
  s.config.scenario.mix = cellular::TrafficMix{0.7, 0.25, 0.05};  // texting
  return s;
}

ScenarioSpec poissonSteadyState() {
  ScenarioSpec s;
  s.name = "poisson-steady-state";
  s.summary =
      "The paper's cell driven by a Poisson process past its fill-up "
      "transient — the steady-state alternative to the burst semantics.";
  s.config.total_requests = 500;
  s.config.arrival_window_s = 6000.0;
  s.config.arrivals = ArrivalProcess::Poisson;
  s.config.warmup_s = 600.0;
  return s;
}

}  // namespace

ScenarioCatalog::ScenarioCatalog() {
  for (ScenarioSpec spec : {paperSingleCell(), urbanWalkers(), highway(),
                            stadiumBurst(), poissonSteadyState()}) {
    const std::string name = spec.name;
    entries_.emplace(name, std::move(spec));
  }
}

const ScenarioCatalog& ScenarioCatalog::builtins() {
  static const ScenarioCatalog catalog;
  return catalog;
}

void ScenarioCatalog::add(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw ScenarioError("scenario needs a non-empty name");
  }
  const std::string name = spec.name;
  if (!entries_.emplace(name, std::move(spec)).second) {
    throw ScenarioError("scenario '" + name + "' already catalogued");
  }
}

const ScenarioSpec& ScenarioCatalog::addFile(
    const std::string& path, const cellular::PolicyRuntime& runtime) {
  ScenarioSpec spec = loadScenarioFile(path, runtime);
  const std::string name = spec.name;
  add(std::move(spec));
  return entries_.find(name)->second;
}

bool ScenarioCatalog::contains(std::string_view name) const noexcept {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> ScenarioCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, spec] : entries_) out.push_back(name);
  return out;
}

const ScenarioSpec& ScenarioCatalog::at(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += "|";
      known += n;
    }
    throw ScenarioError("unknown scenario '" + std::string{name} + "' (" +
                        known + ")");
  }
  return it->second;
}

std::string ScenarioCatalog::describeAll() const {
  // Cell count and default shards up front, so operators can see at a
  // glance which scenarios have enough cells for --shards to bite.
  std::ostringstream os;
  for (const auto& [name, spec] : entries_) {
    const int cells = cellular::hexDiskCellCount(spec.config.rings);
    os << "  " << name << "  [" << cells
       << (cells == 1 ? " cell" : " cells") << ", shards "
       << spec.config.shards << "]\n      " << spec.summary << "\n";
  }
  return os.str();
}

SimulationBuilder SimulationBuilder::scenario(std::string_view name) {
  return scenario(name, ScenarioCatalog::builtins());
}

SimulationBuilder SimulationBuilder::scenario(std::string_view name,
                                              const ScenarioCatalog& catalog) {
  return SimulationBuilder{catalog.at(name)};
}

SimulationBuilder& SimulationBuilder::runtime(const cellular::PolicyRuntime& rt) {
  runtime_ = &rt;
  return *this;
}

SimulationBuilder& SimulationBuilder::requests(int n) {
  config_.total_requests = n;
  return *this;
}

SimulationBuilder& SimulationBuilder::arrivalWindow(double seconds) {
  config_.arrival_window_s = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::poissonArrivals(bool on) {
  config_.arrivals = on ? ArrivalProcess::Poisson : ArrivalProcess::UniformBurst;
  return *this;
}

SimulationBuilder& SimulationBuilder::warmup(double seconds) {
  config_.warmup_s = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}

SimulationBuilder& SimulationBuilder::rings(int rings) {
  config_.rings = rings;
  return *this;
}

SimulationBuilder& SimulationBuilder::cellRadiusKm(double km) {
  config_.cell_radius_km = km;
  return *this;
}

SimulationBuilder& SimulationBuilder::capacityBu(cellular::BandwidthUnits bu) {
  config_.capacity_bu = bu;
  return *this;
}

SimulationBuilder& SimulationBuilder::handoffs(bool on) {
  config_.enable_handoffs = on;
  return *this;
}

SimulationBuilder& SimulationBuilder::mobilityUpdate(double seconds) {
  config_.mobility_update_s = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::shards(int n) {
  config_.shards = n;
  return *this;
}

SimulationBuilder& SimulationBuilder::commitGroups(int n) {
  config_.commit_groups = n;
  return *this;
}

SimulationBuilder& SimulationBuilder::partition(PartitionStrategy strategy) {
  config_.partition = strategy;
  return *this;
}

SimulationBuilder& SimulationBuilder::repartitionEvery(double seconds) {
  config_.repartition_every_s = seconds;
  return *this;
}

/// Finds or creates the single override entry for \p cell, keeping the
/// one-entry-per-cell invariant validateConfig() enforces regardless of
/// which setters ran first.
CellOverride& SimulationBuilder::overrideFor(cellular::CellId cell) {
  for (CellOverride& o : config_.cell_overrides) {
    if (o.cell == cell) return o;
  }
  config_.cell_overrides.push_back(CellOverride{cell, {}, {}, {}});
  return config_.cell_overrides.back();
}

SimulationBuilder& SimulationBuilder::cellCapacityBu(cellular::CellId cell,
                                                     cellular::BandwidthUnits bu) {
  overrideFor(cell).capacity_bu = bu;
  return *this;
}

SimulationBuilder& SimulationBuilder::cellArrivalScale(cellular::CellId cell,
                                                       double scale) {
  overrideFor(cell).arrival_scale = scale;
  return *this;
}

SimulationBuilder& SimulationBuilder::cellTrafficMix(
    cellular::CellId cell, const cellular::TrafficMix& mix) {
  overrideFor(cell).mix = mix;
  return *this;
}

SimulationBuilder& SimulationBuilder::explain(bool on) {
  config_.explain = on;
  return *this;
}

SimulationBuilder& SimulationBuilder::speedKmh(double lo, double hi) {
  config_.scenario.speed_min_kmh = lo;
  config_.scenario.speed_max_kmh = hi;
  return *this;
}

SimulationBuilder& SimulationBuilder::angleDeg(double mean, double sigma) {
  config_.scenario.angle_mean_deg = mean;
  config_.scenario.angle_sigma_deg = sigma;
  return *this;
}

SimulationBuilder& SimulationBuilder::distanceKm(double lo, double hi) {
  config_.scenario.distance_min_km = lo;
  config_.scenario.distance_max_km = hi;
  return *this;
}

SimulationBuilder& SimulationBuilder::trackingWindow(double seconds) {
  config_.scenario.tracking_window_s = seconds;
  return *this;
}

SimulationBuilder& SimulationBuilder::gpsErrorM(double metres) {
  config_.scenario.gps_error_m = metres;
  return *this;
}

SimulationBuilder& SimulationBuilder::noGps() {
  config_.scenario.gps_error_m.reset();
  return *this;
}

SimulationBuilder& SimulationBuilder::trafficMix(
    const cellular::TrafficMix& mix) {
  config_.scenario.mix = mix;
  return *this;
}

SimulationBuilder& SimulationBuilder::scenarioParams(
    const ScenarioParams& params) {
  config_.scenario = params;
  return *this;
}

SimulationBuilder& SimulationBuilder::policy(std::string_view spec) {
  // Parse eagerly so typos surface where the spec is written, not when the
  // run starts.
  (void)runtimeOrDefault().makeFactory(spec);
  policy_spec_ = std::string{spec};
  return *this;
}

const cellular::PolicyRuntime& SimulationBuilder::runtimeOrDefault() const {
  return runtime_ ? *runtime_ : cellular::PolicyRuntime::defaultRuntime();
}

SimulationConfig SimulationBuilder::build() const {
  validateConfig(config_);
  return config_;
}

ControllerFactory SimulationBuilder::factory() const {
  return runtimeOrDefault().makeFactory(policy_spec_);
}

Metrics SimulationBuilder::run() const {
  return runSimulation(build(), factory());
}

}  // namespace facs::sim
