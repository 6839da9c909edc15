#pragma once
/// \file policy_registry.hpp
/// The pluggable admission-policy registry: maps textual policy specs such
/// as `"facs"`, `"guard:8"`, `"threshold:38,30,20"` or
/// `"facs:tau=0.25,ops=prod"` to controller factories, so the CLI, the
/// benches and the examples can name policies without linking their
/// construction logic.
///
/// Spec grammar:
///
///     spec      := name [ ":" arg { "," arg } ]
///     arg       := value | key "=" value
///
/// Positional and named arguments may be mixed; what each policy accepts is
/// documented by its registry entry (`PolicyRegistry::describeAll()`, or
/// `facs_cli --list-policies`).
///
/// Policies register themselves: each policy translation unit defines a
/// file-local `PolicyRegistrar` whose constructor runs at static
/// initialization. The build links the library as a CMake OBJECT library so
/// no policy TU (and hence no registrar) is ever dropped by the linker.
///
/// Registrars populate the *seed* registry (`PolicyRegistry::global()`).
/// Call sites resolve specs through a `PolicyRuntime` — an instance-scoped
/// snapshot of the seed that embedders and tests can extend with
/// `registerExternal()` without touching the process-wide state.

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cellular/admission.hpp"

namespace facs::cellular {

class HexNetwork;

/// Builds a fresh admission controller for a run. Receives the network so
/// topology-aware policies (SCC, predictive reservation, SIR) can hold a
/// reference to it. `sim::ControllerFactory` is an alias of this type.
using ControllerFactory =
    std::function<std::unique_ptr<AdmissionController>(const HexNetwork&)>;

/// Raised for an unknown policy name or a malformed parameter. The CLI
/// converts these into `CliError`s verbatim, so messages name the offending
/// spec fragment.
class PolicySpecError : public std::runtime_error {
 public:
  explicit PolicySpecError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A parsed policy spec: the policy name plus its positional and named
/// arguments. The accessor helpers throw PolicySpecError with the policy
/// name attached, so registered builders can consume arguments without
/// hand-rolling error messages.
class PolicySpec {
 public:
  /// Parses `name[:arg,...]`. \throws PolicySpecError on an empty name,
  /// empty argument or malformed `key=` fragment.
  [[nodiscard]] static PolicySpec parse(std::string_view text);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Number of positional arguments.
  [[nodiscard]] std::size_t positionalCount() const noexcept {
    return positional_.size();
  }
  [[nodiscard]] bool hasKey(std::string_view key) const noexcept;

  /// Positional argument \p index as a number, or \p fallback when absent.
  [[nodiscard]] double numberAt(std::size_t index, double fallback) const;

  /// Named argument as a number, or \p fallback when absent.
  [[nodiscard]] double numberFor(std::string_view key, double fallback) const;

  /// Like numberAt/numberFor, but reject fractional values instead of
  /// silently truncating — "guard:8.5" is a typo, not guard:8 — and
  /// non-finite or out-of-int-range ones ("res=nan", "reach=1e300").
  [[nodiscard]] int intAt(std::size_t index, int fallback) const;
  [[nodiscard]] int intFor(std::string_view key, int fallback) const;

  /// Named argument as a lower-case keyword, or \p fallback when absent.
  [[nodiscard]] std::string keywordFor(std::string_view key,
                                       std::string_view fallback) const;

  /// \throws PolicySpecError if more than \p max positional arguments or a
  /// named argument outside \p keys was supplied — catches typos like
  /// `facs:tua=0.2` instead of silently ignoring them.
  void expectOnly(std::size_t max_positional,
                  const std::vector<std::string_view>& keys) const;

 private:
  [[nodiscard]] double toNumber(const std::string& value,
                                std::string_view what) const;
  [[nodiscard]] int toInt(double value, std::string_view what) const;

  std::string name_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string, std::less<>> named_;
};

/// Registry entry: documentation plus the spec -> factory builder.
struct PolicyInfo {
  std::string name;        ///< Canonical spec name, e.g. "guard".
  std::string summary;     ///< One line for --list-policies.
  std::string params_doc;  ///< Accepted arguments, e.g. "guard:G  (G >= 0)".
};

/// String-keyed factory of admission-policy factories.
///
/// Thread-compatible: registration happens during static initialization
/// (single-threaded); all queries afterwards are const. Copyable on
/// purpose — `PolicyRuntime` snapshots the seed registry per instance.
class PolicyRegistry {
 public:
  /// Turns a parsed spec into a ControllerFactory.
  /// Builders validate parameters eagerly and throw PolicySpecError, so a
  /// bad spec fails at parse time, not mid-simulation.
  using Builder = std::function<ControllerFactory(const PolicySpec&)>;

  /// The process-wide SEED registry all `PolicyRegistrar`s register into.
  /// Resolve specs through a `PolicyRuntime` (which snapshots this seed)
  /// instead of querying the global directly — only registrars and tests
  /// should touch it.
  [[nodiscard]] static PolicyRegistry& global();

  /// Registers a policy. \throws std::logic_error on a duplicate name.
  void add(PolicyInfo info, Builder builder);

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  /// Sorted canonical names of every registered policy.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Documentation of one policy. \throws PolicySpecError when unknown.
  [[nodiscard]] const PolicyInfo& info(std::string_view name) const;

  /// Parses \p spec and builds the factory.
  /// \throws PolicySpecError on an unknown name or malformed parameters.
  [[nodiscard]] ControllerFactory makeFactory(std::string_view spec) const;

  /// Convenience: makeFactory(spec) applied to \p network immediately.
  [[nodiscard]] std::unique_ptr<AdmissionController> makeController(
      std::string_view spec, const HexNetwork& network) const;

  /// Multi-line human-readable dump of every entry (--list-policies).
  [[nodiscard]] std::string describeAll() const;

 private:
  struct Entry {
    PolicyInfo info;
    Builder builder;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Self-registration helper: define one per policy at namespace scope in
/// the policy's own translation unit.
class PolicyRegistrar {
 public:
  PolicyRegistrar(PolicyInfo info, PolicyRegistry::Builder builder) {
    PolicyRegistry::global().add(std::move(info), std::move(builder));
  }
};

/// An instance-scoped policy runtime: owns a snapshot of the registrar
/// seed plus any policies added through `registerExternal()`. Two runtimes
/// never share mutable state, so an embedding API can load plugin policies
/// per run (or a test can inject fakes) without touching the process-wide
/// seed or other runtimes.
///
/// Thread-compatible like `PolicyRegistry`: construct and extend a runtime
/// from one thread, then query it from as many as you like (makeFactory,
/// makeController and the introspection calls are const). Constructing
/// runtimes concurrently is safe — the seed is immutable after static
/// initialization.
class PolicyRuntime {
 public:
  /// Snapshots the registrar-seeded process registry.
  PolicyRuntime() : registry_{PolicyRegistry::global()} {}
  /// Starts from a caller-provided registry instead of the seed (tests,
  /// or embedders that want a fully curated policy set).
  explicit PolicyRuntime(PolicyRegistry seed) : registry_{std::move(seed)} {}

  /// A shared default-seeded instance for call sites with no runtime of
  /// their own (the CLI default, the benches). Never extended — equivalent
  /// to a freshly constructed PolicyRuntime.
  [[nodiscard]] static const PolicyRuntime& defaultRuntime();

  /// Extension point: adds a policy to THIS runtime only. The seed and
  /// every other runtime are unaffected. \throws std::logic_error on a
  /// duplicate name (including clashes with a built-in policy).
  void registerExternal(PolicyInfo info, PolicyRegistry::Builder builder) {
    registry_.add(std::move(info), std::move(builder));
  }

  /// The underlying snapshot (for introspection; const — mutate only
  /// through registerExternal()).
  [[nodiscard]] const PolicyRegistry& registry() const noexcept {
    return registry_;
  }

  /// \name Resolution pass-throughs (see PolicyRegistry)
  ///@{
  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    return registry_.contains(name);
  }
  [[nodiscard]] std::vector<std::string> names() const {
    return registry_.names();
  }
  [[nodiscard]] const PolicyInfo& info(std::string_view name) const {
    return registry_.info(name);
  }
  [[nodiscard]] ControllerFactory makeFactory(std::string_view spec) const {
    return registry_.makeFactory(spec);
  }
  [[nodiscard]] std::unique_ptr<AdmissionController> makeController(
      std::string_view spec, const HexNetwork& network) const {
    return registry_.makeController(spec, network);
  }
  [[nodiscard]] std::string describeAll() const {
    return registry_.describeAll();
  }
  ///@}

 private:
  PolicyRegistry registry_;
};

}  // namespace facs::cellular
