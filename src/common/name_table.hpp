// Enum <-> name tables: one array per enum serves its to_string, its parser
// and the list a --help text prints, so the three cannot drift apart.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace haccs {

template <typename Enum>
struct Named {
  Enum value;
  const char* name;
};

/// "a|b|c", in table order.
template <typename Enum, std::size_t N>
std::string joined_names(const Named<Enum> (&table)[N]) {
  std::string out = table[0].name;
  for (std::size_t i = 1; i < N; ++i) out += std::string("|") + table[i].name;
  return out;
}

template <typename Enum, std::size_t N>
std::string name_of(const Named<Enum> (&table)[N], Enum value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  throw std::invalid_argument("name_of: value outside its name table");
}

/// Throws std::invalid_argument "unknown <what> '<name>' (expected a|b|c)".
template <typename Enum, std::size_t N>
Enum parse_name(const Named<Enum> (&table)[N], const std::string& name,
                const char* what) {
  for (const auto& entry : table) {
    if (name == entry.name) return entry.value;
  }
  throw std::invalid_argument("unknown " + std::string(what) + " '" + name +
                              "' (expected " + joined_names(table) + ")");
}

}  // namespace haccs
