// Deterministic scenario fuzzer (TESTING.md "Scenario fuzzing").
//
// Sweeps seeded scenarios through the differential and invariant oracle
// families (src/testing/oracles.hpp). Every failure is shrunk to a minimal
// reproducer and printed as a one-line replay command:
//
//   haccs_fuzz --seeds 0..199             # fixed seed range
//   haccs_fuzz --seeds 500 --time-budget 60
//   haccs_fuzz --replay "seed=41,selector=haccs-py,..."
//   haccs_fuzz --mutate drop-eq7-normalization --seeds 0..20 --expect-violation
//   haccs_fuzz --seeds 0..999 --reproducers shrunk.tsv   # nightly artifact
//
// Exit status: 0 = clean sweep, 1 = violations found (inverted under
// --expect-violation, which is how CI proves the oracles still have teeth),
// 2 = usage error.
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.hpp"
#include "src/common/mutation.hpp"
#include "src/testing/oracles.hpp"
#include "src/testing/scenario.hpp"
#include "src/testing/shrink.hpp"

namespace {

using haccs::testing::OracleOptions;
using haccs::testing::ScenarioSpec;

struct SeedRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;  // inclusive
};

/// "A..B" (inclusive) or "N" (meaning 0..N-1); each bound a whole integer.
SeedRange parse_seeds(const std::string& text) {
  auto bound = [](const std::string& part) {
    return static_cast<std::uint64_t>(haccs::parse_count("flag --seeds", part));
  };
  SeedRange range;
  const auto dots = text.find("..");
  if (dots == std::string::npos) {
    const auto count = bound(text);
    if (count == 0) throw std::invalid_argument("--seeds count must be > 0");
    range.last = count - 1;
    return range;
  }
  range.first = bound(text.substr(0, dots));
  range.last = bound(text.substr(dots + 2));
  if (range.last < range.first) {
    throw std::invalid_argument("--seeds range is empty: " + text);
  }
  return range;
}

void print_usage() {
  std::cout
      << "haccs_fuzz — deterministic scenario fuzzer (TESTING.md)\n"
         "  --seeds=A..B        inclusive seed range, or N for 0..N-1\n"
         "                      (default 0..49)\n"
         "  --time-budget=S     stop starting scenarios after S seconds\n"
         "                      (default 0 = no budget)\n"
         "  --replay=SPEC       check one spec string instead of a sweep\n"
         "  --mutate=NAME       arm a planted bug (default none)\n"
         "  --expect-violation  exit 0 only if some oracle fires\n"
         "  --shrink=BOOL       shrink failures to a minimal spec (default 1)\n"
         "  --list              print the sweep's specs without running them\n"
         "  --reproducers=F     append each shrunk reproducer to F\n"
         "  --differential=BOOL run the differential oracles (default 1)\n"
         "  --srswr-draws=N     draws for the sampling oracle (default 4000)\n"
         "  --help              this text\n"
         "exit status: 0 clean, 1 violations found, 2 usage error\n";
}

void print_violations(const ScenarioSpec& spec,
                      const std::vector<haccs::testing::Violation>& violations) {
  std::cout << "FAIL " << haccs::testing::to_spec_string(spec) << "\n";
  for (const auto& v : violations) {
    std::cout << "  [" << v.oracle << "] " << v.detail << "\n";
  }
}

/// Runs oracles on one spec; on failure, shrinks and prints the replay line.
/// With `reproducers` set, each shrunk reproducer is also appended there
/// (one "oracle<TAB>spec" line per failure) so CI can upload the file as an
/// artifact. Returns the number of violations.
std::size_t run_one(const ScenarioSpec& spec, const OracleOptions& options,
                    bool shrink, const std::string& reproducers) {
  const auto violations = haccs::testing::check_scenario(spec, options);
  if (violations.empty()) return 0;
  print_violations(spec, violations);
  ScenarioSpec minimal = spec;
  if (shrink) {
    const auto result = haccs::testing::shrink_scenario(
        spec, violations.front().oracle, options);
    minimal = result.spec;
    std::cout << "  shrunk: " << result.attempts << " candidates tried, "
              << result.reproductions << " kept\n";
  }
  std::cout << "  reproduce: " << haccs::testing::replay_command(minimal)
            << "\n";
  if (!reproducers.empty()) {
    std::ofstream out(reproducers, std::ios::app);
    if (!out) {
      throw std::runtime_error("cannot open --reproducers file: " +
                               reproducers);
    }
    out << violations.front().oracle << "\t"
        << haccs::testing::to_spec_string(minimal) << "\n";
  }
  return violations.size();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    haccs::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      print_usage();
      return 0;
    }

    const std::string seeds_text = flags.get_string("seeds", "0..49");
    const double time_budget_s = flags.get_double("time-budget", 0.0);
    const std::string replay = flags.get_string("replay", "");
    const std::string mutate = flags.get_string("mutate", "none");
    const bool expect_violation = flags.get_bool("expect-violation", false);
    const bool shrink = flags.get_bool("shrink", true);
    const bool list_only = flags.get_bool("list", false);
    const std::string reproducers = flags.get_string("reproducers", "");
    OracleOptions options;
    options.differential = flags.get_bool("differential", true);
    options.srswr_draws = static_cast<std::size_t>(
        flags.get_int("srswr-draws", 4000));
    flags.check_unused();

    haccs::mutation::ScopedMutation armed(haccs::mutation::parse(mutate));

    std::size_t total_violations = 0;
    std::size_t scenarios_run = 0;

    if (!replay.empty()) {
      const auto spec = haccs::testing::parse_spec_string(replay);
      total_violations = run_one(spec, options, shrink, reproducers);
      scenarios_run = 1;
    } else {
      const auto range = parse_seeds(seeds_text);
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t seed = range.first; seed <= range.last; ++seed) {
        if (time_budget_s > 0.0) {
          const std::chrono::duration<double> elapsed =
              std::chrono::steady_clock::now() - start;
          if (elapsed.count() >= time_budget_s) {
            std::cout << "time budget (" << time_budget_s
                      << "s) exhausted after seed " << (seed - 1) << "\n";
            break;
          }
        }
        const auto spec = haccs::testing::generate_scenario(seed);
        if (list_only) {
          std::cout << haccs::testing::to_spec_string(spec) << "\n";
          continue;
        }
        total_violations += run_one(spec, options, shrink, reproducers);
        ++scenarios_run;
        if (seed == range.last) break;  // avoid overflow on seed+1
      }
    }

    if (!list_only) {
      std::cout << scenarios_run << " scenario(s), " << total_violations
                << " violation(s)\n";
    }
    if (expect_violation) {
      if (total_violations == 0) {
        std::cout << "expected at least one violation but the sweep was "
                     "clean\n";
        return 1;
      }
      return 0;
    }
    return total_violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "haccs_fuzz: " << e.what() << "\n";
    return 2;
  }
}
