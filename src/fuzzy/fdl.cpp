#include "fuzzy/fdl.hpp"

#include <cmath>
#include <istream>
#include <sstream>
#include <vector>

#include "fuzzy/shapes.hpp"

namespace facs::fuzzy {

FdlError::FdlError(int line, const std::string& message)
    : std::runtime_error("FDL line " + std::to_string(line) + ": " + message),
      line_{line} {}

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size() || line[i] == '#') break;
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

double parseNumber(const std::string& token, int line) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw FdlError(line, "expected a number, got '" + token + "'");
  }
}

TNorm parseTNorm(const std::string& token, int line) {
  if (token == "min") return TNorm::Minimum;
  if (token == "prod") return TNorm::AlgebraicProduct;
  if (token == "lukasiewicz") return TNorm::BoundedDifference;
  throw FdlError(line, "unknown t-norm '" + token + "'");
}

SNorm parseSNorm(const std::string& token, int line) {
  if (token == "max") return SNorm::Maximum;
  if (token == "probor") return SNorm::AlgebraicSum;
  if (token == "bsum") return SNorm::BoundedSum;
  throw FdlError(line, "unknown s-norm '" + token + "'");
}

Defuzzifier parseDefuzzifier(const std::string& token, int line) {
  if (token == "centroid") return Defuzzifier::Centroid;
  if (token == "bisector") return Defuzzifier::Bisector;
  if (token == "mom") return Defuzzifier::MeanOfMax;
  if (token == "som") return Defuzzifier::SmallestOfMax;
  if (token == "lom") return Defuzzifier::LargestOfMax;
  throw FdlError(line, "unknown defuzzifier '" + token + "'");
}

/// Parses a `term` line into \p target, the variable declared last.
void handleTerm(LinguisticVariable* target, const std::vector<std::string>& tok,
                int line) {
  if (target == nullptr) {
    throw FdlError(line, "'term' before any variable declaration");
  }
  if (tok.size() < 3) throw FdlError(line, "term: missing shape");
  const std::string& name = tok[1];
  const std::string& shape = tok[2];
  std::unique_ptr<MembershipFunction> mf;
  try {
    if (shape == "tri") {
      if (tok.size() != 6) {
        throw FdlError(line, "tri needs: center left_width right_width");
      }
      mf = makeTriangle(parseNumber(tok[3], line), parseNumber(tok[4], line),
                        parseNumber(tok[5], line));
    } else if (shape == "trap") {
      if (tok.size() != 7) {
        throw FdlError(line,
                       "trap needs: plateau_lo plateau_hi left_width right_width");
      }
      mf = makeTrapezoid(parseNumber(tok[3], line), parseNumber(tok[4], line),
                         parseNumber(tok[5], line), parseNumber(tok[6], line));
    } else if (shape == "gauss") {
      if (tok.size() != 5) throw FdlError(line, "gauss needs: mean sigma");
      mf = makeGaussian(parseNumber(tok[3], line), parseNumber(tok[4], line));
    } else if (shape == "bell") {
      if (tok.size() != 6) {
        throw FdlError(line, "bell needs: center width slope");
      }
      mf = makeBell(parseNumber(tok[3], line), parseNumber(tok[4], line),
                    parseNumber(tok[5], line));
    } else if (shape == "sigmoid") {
      if (tok.size() != 5) {
        throw FdlError(line, "sigmoid needs: inflection slope");
      }
      mf = makeSigmoid(parseNumber(tok[3], line), parseNumber(tok[4], line));
    } else {
      throw FdlError(line, "unknown shape '" + shape +
                               "' (tri|trap|gauss|bell|sigmoid)");
    }
    target->addTerm(name, std::move(mf));
  } catch (const FdlError&) {
    throw;
  } catch (const std::exception& e) {
    throw FdlError(line, e.what());
  }
}

RuleSpec parseRule(const std::vector<std::string>& tok, int line) {
  RuleSpec r;
  std::size_t i = 1;
  for (; i < tok.size() && tok[i] != "=>"; ++i) r.antecedent.push_back(tok[i]);
  if (i >= tok.size()) throw FdlError(line, "rule: missing '=>'");
  ++i;
  if (i >= tok.size()) throw FdlError(line, "rule: missing consequent term");
  r.consequent = tok[i++];
  if (i < tok.size()) {
    if (tok[i] != "weight" || i + 1 >= tok.size()) {
      throw FdlError(line, "rule: expected 'weight <w>' after consequent");
    }
    r.weight = parseNumber(tok[i + 1], line);
    i += 2;
  }
  if (i != tok.size()) throw FdlError(line, "rule: trailing tokens");
  return r;
}

/// The `resolution` value as an int, range-checked before the cast:
/// converting NaN or an out-of-range double to int is undefined behaviour.
int parseResolution(const std::string& token, int line) {
  const double r = parseNumber(token, line);
  if (!(r >= 2.0 && r <= kMaxResolution) || r != std::floor(r)) {
    throw FdlError(line, "resolution: expected an integer in [2, " +
                             std::to_string(kMaxResolution) + "], got '" +
                             token + "'");
  }
  return static_cast<int>(r);
}

}  // namespace

MamdaniEngine parseFdl(std::string_view text) {
  EngineSpec spec;
  std::vector<RuleSpec> rules;
  std::vector<int> rule_lines;  // source line of each rule, for RuleError
  LinguisticVariable* attach = nullptr;  // terms attach to the last variable
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& kw = tok[0];

    if (kw == "engine") {
      if (tok.size() != 2) throw FdlError(line_no, "engine: expected a name");
      spec.name = tok[1];
    } else if (kw == "conjunction") {
      if (tok.size() != 2) throw FdlError(line_no, "conjunction: expected one operator");
      spec.config.conjunction = parseTNorm(tok[1], line_no);
    } else if (kw == "implication") {
      if (tok.size() != 2) throw FdlError(line_no, "implication: expected one operator");
      spec.config.implication = parseTNorm(tok[1], line_no);
    } else if (kw == "aggregation") {
      if (tok.size() != 2) throw FdlError(line_no, "aggregation: expected one operator");
      spec.config.aggregation = parseSNorm(tok[1], line_no);
    } else if (kw == "defuzzifier") {
      if (tok.size() != 2) throw FdlError(line_no, "defuzzifier: expected one method");
      spec.config.defuzzifier = parseDefuzzifier(tok[1], line_no);
    } else if (kw == "resolution") {
      if (tok.size() != 2) throw FdlError(line_no, "resolution: expected an int");
      spec.config.resolution = parseResolution(tok[1], line_no);
    } else if (kw == "input" || kw == "output") {
      if (tok.size() != 4) {
        throw FdlError(line_no, kw + ": expected <name> <lo> <hi>");
      }
      try {
        LinguisticVariable v{tok[1], Interval{parseNumber(tok[2], line_no),
                                              parseNumber(tok[3], line_no)}};
        if (kw == "input") {
          attach = &spec.inputs.emplace_back(std::move(v));
        } else {
          attach = &spec.output.emplace(std::move(v));
        }
      } catch (const FdlError&) {
        throw;
      } catch (const std::exception& e) {
        throw FdlError(line_no, e.what());
      }
    } else if (kw == "term") {
      handleTerm(attach, tok, line_no);
    } else if (kw == "rule") {
      rules.push_back(parseRule(tok, line_no));
      rule_lines.push_back(line_no);
    } else {
      throw FdlError(line_no, "unknown keyword '" + kw + "'");
    }
  }

  if (spec.name.empty()) {
    throw FdlError(1, "missing 'engine <name>' declaration");
  }
  if (!spec.output) throw FdlError(1, "missing output variable");
  spec.rules = rules;
  try {
    return MamdaniEngine{std::move(spec)};
  } catch (const RuleError& e) {
    throw FdlError(rule_lines.at(e.rule()), e.what());
  } catch (const std::exception& e) {
    throw FdlError(1, e.what());
  }
}

MamdaniEngine parseFdl(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseFdl(buffer.str());
}

namespace {

void writeMf(std::ostream& os, const MembershipFunction& mf) {
  // describe() already emits the FDL shape syntax modulo punctuation, but
  // writing parameters explicitly keeps the round-trip exact.
  if (const auto* tri = dynamic_cast<const Triangular*>(&mf)) {
    os << "tri " << tri->center() << " " << tri->leftWidth() << " "
       << tri->rightWidth();
  } else if (const auto* trap = dynamic_cast<const Trapezoidal*>(&mf)) {
    os << "trap " << trap->plateauLo() << " " << trap->plateauHi() << " "
       << trap->leftWidth() << " " << trap->rightWidth();
  } else if (const auto* gauss = dynamic_cast<const Gaussian*>(&mf)) {
    os << "gauss " << gauss->mean() << " " << gauss->sigma();
  } else if (dynamic_cast<const GeneralizedBell*>(&mf) != nullptr ||
             dynamic_cast<const Sigmoid*>(&mf) != nullptr) {
    // bell(c, w, s) / sigmoid(i, s): describe() prints "name(a, b[, c])".
    std::string d = mf.describe();
    for (char& ch : d) {
      if (ch == '(' || ch == ',' || ch == ')') ch = ' ';
    }
    os << d;
  } else {
    throw std::logic_error("toFdl: unsupported membership function shape");
  }
}

void writeVariable(std::ostream& os, const char* kw,
                   const LinguisticVariable& v) {
  os << kw << " " << v.name() << " " << v.universe().lo << " "
     << v.universe().hi << "\n";
  for (const Term& t : v.terms()) {
    os << "  term " << t.name() << " ";
    writeMf(os, t.mf());
    os << "\n";
  }
}

}  // namespace

std::string toFdl(const MamdaniEngine& engine) {
  std::ostringstream os;
  os << "engine " << engine.name() << "\n";
  os << "conjunction " << toString(engine.config().conjunction) << "\n";
  os << "implication " << toString(engine.config().implication) << "\n";
  os << "aggregation " << toString(engine.config().aggregation) << "\n";
  os << "defuzzifier " << toString(engine.config().defuzzifier) << "\n";
  os << "resolution " << engine.config().resolution << "\n";
  for (const auto& v : engine.inputs()) writeVariable(os, "input", v);
  writeVariable(os, "output", engine.output());
  for (const Rule& r : engine.rules().rules()) {
    os << "rule";
    for (std::size_t v = 0; v < r.antecedent.size(); ++v) {
      if (r.antecedent[v] == kAnyTerm) {
        os << " *";
      } else {
        os << " " << engine.input(v).term(r.antecedent[v]).name();
      }
    }
    os << " => " << engine.output().term(r.consequent).name();
    if (r.weight != 1.0) os << " weight " << r.weight;
    os << "\n";
  }
  return os.str();
}

}  // namespace facs::fuzzy
