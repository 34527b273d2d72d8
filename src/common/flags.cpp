#include "src/common/flags.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace haccs {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("bare '--' not supported");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--no-foo` form for booleans.
    if (body.rfind("no-", 0) == 0) {
      values_[body.substr(3)] = "false";
      continue;
    }
    // `--name value` if the next token is not itself a flag; otherwise a
    // bare boolean `--name`.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  return lookup(name) != nullptr;
}

const std::string* Flags::lookup(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  consumed_[name] = true;
  return &it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) const {
  const std::string* v = lookup(name);
  return v ? *v : default_value;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t default_value) const {
  const std::string* v = lookup(name);
  return v ? parse_int("flag --" + name, *v) : default_value;
}

std::size_t Flags::get_count(const std::string& name,
                             std::size_t default_value) const {
  const std::string* v = lookup(name);
  return v ? parse_count("flag --" + name, *v) : default_value;
}

double Flags::get_double(const std::string& name, double default_value) const {
  const std::string* v = lookup(name);
  return v ? parse_double("flag --" + name, *v) : default_value;
}

bool Flags::get_bool(const std::string& name, bool default_value) const {
  const std::string* v = lookup(name);
  return v ? parse_bool("flag --" + name, *v) : default_value;
}

void Flags::check_unused() const {
  std::string unused;
  for (const auto& [name, _] : values_) {
    if (!consumed_.count(name)) {
      if (!unused.empty()) unused += ", ";
      unused += "--" + name;
    }
  }
  if (!unused.empty()) {
    throw std::invalid_argument("unknown flags: " + unused);
  }
}

std::int64_t parse_int(const std::string& what, const std::string& v) {
  std::int64_t value = 0;
  const char* const last = v.data() + v.size();
  const auto [end, error] = std::from_chars(v.data(), last, value);
  if (error != std::errc() || end != last) {
    throw std::invalid_argument(what + " expects an integer, got '" + v + "'");
  }
  return value;
}

std::size_t parse_count(const std::string& what, const std::string& v) {
  const std::int64_t value = parse_int(what, v);
  if (value < 0) {
    throw std::invalid_argument(what + " expects a non-negative integer, got '" +
                                v + "'");
  }
  return static_cast<std::size_t>(value);
}

double parse_double(const std::string& what, const std::string& v) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || !std::isfinite(value)) {
    throw std::invalid_argument(what + " expects a finite number, got '" + v +
                                "'");
  }
  return value;
}

bool parse_bool(const std::string& what, const std::string& v) {
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument(what + " expects a boolean, got '" + v + "'");
}

}  // namespace haccs
