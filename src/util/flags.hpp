// Minimal command-line flag parsing for the example drivers.
//
// Supports --name=value and --name value, typed getters with defaults,
// and an auto-generated usage listing. No external dependencies; strict:
// unknown flags abort with the usage text (so typos never silently run a
// different experiment).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "util/number_format.hpp"

namespace p2p {

class Flags {
 public:
  Flags(int argc, char** argv) {
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        fail("positional arguments are not supported: " + arg);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        set_once(arg.substr(0, eq), arg.substr(eq + 1));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) !=
                                     0) {
        set_once(arg, argv[++i]);
      } else {
        set_once(arg, "true");  // bare boolean flag
      }
    }
  }

  double get_double(const std::string& name, double fallback,
                    const std::string& help) {
    describe(name, shortest(fallback), help);
    const std::string* token = find(name);
    return token == nullptr ? fallback : parse_decimal(name, *token);
  }

  int get_int(const std::string& name, int fallback,
              const std::string& help) {
    describe(name, std::to_string(fallback), help);
    const std::string* token = find(name);
    if (token == nullptr) return fallback;
    const double v = parse_decimal(name, *token);
    // Range-check before the cast: float-to-int conversion of an
    // out-of-range value is undefined behavior, not a detectable wrap.
    constexpr double lo = std::numeric_limits<int>::min();
    constexpr double hi = std::numeric_limits<int>::max();
    if (!(v >= lo && v <= hi) || v != std::floor(v)) {
      fail("flag --" + name + " expects an integer, got '" + *token + "'");
    }
    return static_cast<int>(v);
  }

  std::string get_string(const std::string& name, const std::string& fallback,
                         const std::string& help) {
    describe(name, fallback, help);
    const std::string* token = find(name);
    return token == nullptr ? fallback : *token;
  }

  bool get_bool(const std::string& name, bool fallback,
                const std::string& help) {
    describe(name, fallback ? "true" : "false", help);
    const std::string* token = find(name);
    if (token == nullptr) return fallback;
    return *token != "false" && *token != "0";
  }

  /// Call after all getters: aborts with usage on unknown flags or --help.
  void finish() {
    if (values_.count("help")) {
      print_usage();
      std::exit(0);
    }
    for (const auto& [name, value] : values_) {
      if (!consumed_.count(name)) {
        fail("unknown flag --" + name);
      }
    }
  }

 private:
  /// A repeated flag is a hard error: letting the last occurrence win
  /// silently runs a different experiment than the command line suggests.
  void set_once(const std::string& name, std::string value) {
    if (!values_.emplace(name, std::move(value)).second) {
      fail("flag --" + name + " given more than once");
    }
  }

  /// The value given for `name`, marked consumed; null when absent.
  const std::string* find(const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) return nullptr;
    consumed_.insert(name);
    return &it->second;
  }

  /// Parses a numeric flag's token, failing with the token verbatim.
  double parse_decimal(const std::string& name, const std::string& token) {
    // Shape-gate before strtod: its grammar also accepts "nan",
    // "inf"/"infinity" (any case), hex floats and leading whitespace —
    // spellings that would silently run a different experiment than the
    // flag suggests. Only plain finite decimals pass.
    const std::size_t first = token.size() > 1 && token[0] == '-' ? 1 : 0;
    const bool decimal_shape =
        token.size() > first && token[first] >= '0' && token[first] <= '9' &&
        token.find_first_of("xX") == std::string::npos;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (!decimal_shape || *end != '\0' || !std::isfinite(v)) {
      fail("flag --" + name + " expects a number (finite decimal), got '" +
           token + "'");
    }
    return v;
  }

  /// The shortest decimal that reads back as `v` ("0.25", not
  /// "0.250000").
  static std::string shortest(double v) { return format_number(v); }

  struct Description {
    std::string fallback;
    std::string help;
  };

  void describe(const std::string& name, const std::string& fallback,
                const std::string& help) {
    described_[name] = {fallback, help};
  }

  void print_usage() const {
    std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program_.c_str());
    for (const auto& [name, d] : described_) {
      std::fprintf(stderr, "  --%-16s %s (default %s)\n", name.c_str(),
                   d.help.c_str(), d.fallback.c_str());
    }
  }

  [[noreturn]] void fail(const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    print_usage();
    std::exit(2);
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, Description> described_;
  std::set<std::string> consumed_;
};

}  // namespace p2p
