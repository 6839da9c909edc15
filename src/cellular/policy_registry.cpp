#include "cellular/policy_registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>

namespace facs::cellular {

namespace {

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

}  // namespace

PolicySpec PolicySpec::parse(std::string_view text) {
  PolicySpec spec;
  const std::size_t colon = text.find(':');
  spec.name_ = std::string{trim(text.substr(0, colon))};
  if (spec.name_.empty()) {
    throw PolicySpecError("empty policy name in spec '" + std::string{text} +
                          "'");
  }

  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = trim(rest.substr(0, comma));
    if (token.empty()) {
      throw PolicySpecError("policy '" + spec.name_ +
                            "': empty argument in spec '" + std::string{text} +
                            "'");
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      if (!spec.named_.empty()) {
        throw PolicySpecError("policy '" + spec.name_ +
                              "': positional argument '" + std::string{token} +
                              "' after a named one");
      }
      spec.positional_.emplace_back(token);
    } else {
      const std::string key{trim(token.substr(0, eq))};
      const std::string value{trim(token.substr(eq + 1))};
      if (key.empty() || value.empty()) {
        throw PolicySpecError("policy '" + spec.name_ +
                              "': malformed key=value argument '" +
                              std::string{token} + "'");
      }
      if (!spec.named_.emplace(key, value).second) {
        throw PolicySpecError("policy '" + spec.name_ +
                              "': duplicate argument '" + key + "'");
      }
    }
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  return spec;
}

bool PolicySpec::hasKey(std::string_view key) const noexcept {
  return named_.find(key) != named_.end();
}

double PolicySpec::toNumber(const std::string& value,
                            std::string_view what) const {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw PolicySpecError("policy '" + name_ + "': " + std::string{what} +
                          " expects a number, got '" + value + "'");
  }
}

double PolicySpec::numberAt(std::size_t index, double fallback) const {
  if (index >= positional_.size()) return fallback;
  return toNumber(positional_[index],
                  "argument #" + std::to_string(index + 1));
}

double PolicySpec::numberFor(std::string_view key, double fallback) const {
  const auto it = named_.find(key);
  if (it == named_.end()) return fallback;
  return toNumber(it->second, "argument '" + std::string{key} + "'");
}

int PolicySpec::toInt(double value, std::string_view what) const {
  // Range-check before the cast: converting NaN, an infinity or a double
  // outside int's range to int is undefined behaviour.
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max()) ||
      value != std::trunc(value)) {
    throw PolicySpecError("policy '" + name_ + "': " + std::string{what} +
                          " expects an integer");
  }
  return static_cast<int>(value);
}

int PolicySpec::intAt(std::size_t index, int fallback) const {
  if (index >= positional_.size()) return fallback;
  return toInt(numberAt(index, fallback),
               "argument #" + std::to_string(index + 1));
}

int PolicySpec::intFor(std::string_view key, int fallback) const {
  if (!hasKey(key)) return fallback;
  return toInt(numberFor(key, fallback),
               "argument '" + std::string{key} + "'");
}

std::string PolicySpec::keywordFor(std::string_view key,
                                   std::string_view fallback) const {
  const auto it = named_.find(key);
  std::string value{it == named_.end() ? fallback : std::string_view{it->second}};
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return value;
}

void PolicySpec::expectOnly(
    std::size_t max_positional,
    const std::vector<std::string_view>& keys) const {
  if (positional_.size() > max_positional) {
    throw PolicySpecError("policy '" + name_ + "': at most " +
                          std::to_string(max_positional) +
                          " positional argument(s) accepted, got " +
                          std::to_string(positional_.size()));
  }
  for (const auto& [key, value] : named_) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      std::string known;
      for (const std::string_view k : keys) {
        if (!known.empty()) known += ", ";
        known += std::string{k};
      }
      throw PolicySpecError("policy '" + name_ + "': unknown argument '" +
                            key + "'" +
                            (known.empty() ? "" : " (accepted: " + known + ")"));
    }
  }
}

PolicyRegistry& PolicyRegistry::global() {
  static PolicyRegistry registry;
  return registry;
}

const PolicyRuntime& PolicyRuntime::defaultRuntime() {
  static const PolicyRuntime runtime;
  return runtime;
}

void PolicyRegistry::add(PolicyInfo info, Builder builder) {
  if (info.name.empty() || !builder) {
    throw std::logic_error("policy registration needs a name and a builder");
  }
  const std::string name = info.name;
  if (!entries_.emplace(name, Entry{std::move(info), std::move(builder)})
           .second) {
    throw std::logic_error("policy '" + name + "' registered twice");
  }
}

bool PolicyRegistry::contains(std::string_view name) const noexcept {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iterates in sorted order
}

const PolicyInfo& PolicyRegistry::info(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw PolicySpecError("unknown policy '" + std::string{name} + "'");
  }
  return it->second.info;
}

ControllerFactory PolicyRegistry::makeFactory(std::string_view spec) const {
  const PolicySpec parsed = PolicySpec::parse(spec);
  const auto it = entries_.find(parsed.name());
  if (it == entries_.end()) {
    std::string known;
    for (const std::string& n : names()) {
      if (!known.empty()) known += "|";
      known += n;
    }
    throw PolicySpecError("unknown policy '" + parsed.name() + "' (" + known +
                          ")");
  }
  return it->second.builder(parsed);
}

std::unique_ptr<AdmissionController> PolicyRegistry::makeController(
    std::string_view spec, const HexNetwork& network) const {
  return makeFactory(spec)(network);
}

std::string PolicyRegistry::describeAll() const {
  std::ostringstream os;
  for (const auto& [name, entry] : entries_) {
    os << "  " << entry.info.params_doc << "\n      " << entry.info.summary
       << "\n";
  }
  return os.str();
}

}  // namespace facs::cellular
