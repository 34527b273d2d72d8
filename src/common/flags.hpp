// Tiny command-line flag parser for bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags are an error so typos in experiment sweeps fail
// fast instead of silently running the default configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace haccs {

class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  /// True if the flag was present on the command line.
  bool has(const std::string& name) const;

  /// Typed lookups consume the whole value: "2x" is no integer. Each throws
  /// std::invalid_argument naming the flag on a malformed value.
  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& name,
                       std::int64_t default_value) const;
  /// A count or an index: get_int that also refuses negative values.
  std::size_t get_count(const std::string& name,
                        std::size_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Call after all get_* lookups: throws std::invalid_argument listing any
  /// flag that was provided but never consumed (i.e. a typo).
  void check_unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace haccs
