// Tests for the scenario fuzzer itself (src/testing) plus the Slow* suites
// that run actual fuzz sweeps — those carry the `slow` ctest label and stay
// out of the tier-1 gate (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include "src/common/mutation.hpp"
#include "src/testing/oracles.hpp"
#include "src/testing/scenario.hpp"
#include "src/testing/shrink.hpp"

namespace haccs {
namespace {

using testing::OracleOptions;
using testing::ScenarioSpec;

// ---------------------------------------------------------------------------
// Tier 1: the fuzzer's own machinery (fast, no training runs)

TEST(FuzzSpec, GenerationIsDeterministic) {
  for (std::uint64_t seed : {0ULL, 1ULL, 7ULL, 123456789ULL}) {
    const auto a = testing::generate_scenario(seed);
    const auto b = testing::generate_scenario(seed);
    EXPECT_EQ(testing::to_spec_string(a), testing::to_spec_string(b));
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(FuzzSpec, SpecStringRoundTrips) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto spec = testing::generate_scenario(seed);
    const auto text = testing::to_spec_string(spec);
    const auto parsed = testing::parse_spec_string(text);
    EXPECT_EQ(testing::to_spec_string(parsed), text) << "seed " << seed;
  }
}

// The generator is a pure function of the seed, and the fuzz corpus (CI's
// nightly seeds, every filed reproducer) depends on it staying one: the
// FNV-1a hash of the first 1000 generated specs is pinned. Update it only
// for a deliberate change to the draw, never as a side effect of a refactor.
TEST(FuzzSpec, GeneratorOutputIsPinned) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const auto line =
        testing::to_spec_string(testing::generate_scenario(seed)) + "\n";
    for (const unsigned char c : line) {
      hash ^= c;
      hash *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(hash, 0xe506af4d34df9de5ULL);
}

TEST(FuzzSpec, OldReproducerStringsStillParse) {
  // Printed by an earlier release's generator (seed 7); must replay as-is.
  const std::string seed7 =
      "seed=7,clients=15,per_round=2,rounds=2,classes=6,image=10,"
      "min_samples=21,max_samples=37,test_samples=11,partition=iid,klabels=3,"
      "alpha=0.1,rotation=30,selector=haccs-pxy,algorithm=optics,"
      "extraction=xi,distance=js,rho=0.75,epsilon=0,mechanism=laplace,"
      "compression=int8,topk_fraction=0.5,crash=0,corruption=0,straggler=0,"
      "overcommit=0.34,deadline=0.9,max_norm=50,dropout=0.1,fedprox=0,"
      "workers=2,chaos_drop=0,chaos_dup=0,chaos_reorder=0,chaos_corrupt=0,"
      "chaos_truncate=0,chaos_disconnect=0,hostile=flash-crowd,"
      "hostile_frac=0.5,hostile_at=1,hostile_span=3";
  EXPECT_EQ(testing::to_spec_string(testing::parse_spec_string(seed7)), seed7);
  EXPECT_EQ(testing::to_spec_string(testing::generate_scenario(7)), seed7);
  for (const std::string name :
       {"random", "tifl", "oort", "haccs-py", "haccs-pxy", "haccs-qxy",
        "stratified", "dpp", "fedlecc", "hics"}) {
    EXPECT_EQ(testing::parse_spec_string("selector=" + name).selector, name);
  }
  EXPECT_THROW(testing::parse_spec_string("selector=haccs"),
               std::invalid_argument);
}

TEST(FuzzSpec, GeneratedSpecsValidate) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    EXPECT_NO_THROW(
        testing::validate_spec(testing::generate_scenario(seed)));
  }
}

TEST(FuzzSpec, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(testing::parse_spec_string("bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW(testing::parse_spec_string("clients=abc"),
               std::invalid_argument);
  EXPECT_THROW(testing::parse_spec_string("clients=0"),
               std::invalid_argument);
  // per_round > clients is a validate_spec violation.
  EXPECT_THROW(testing::parse_spec_string("clients=4,per_round=9"),
               std::invalid_argument);
}

TEST(FuzzSpec, ParseRejectsPartialAndNonFiniteValues) {
  // Values parse whole through the flag parsers: a numeric prefix is no
  // number, NaN and Inf are no finite number, and 2 is no boolean.
  for (const std::string text :
       {"clients=10x", "rho=0.5junk", "rho=nan", "alpha=inf", "fedprox=2"}) {
    EXPECT_THROW(testing::parse_spec_string(text), std::invalid_argument)
        << text;
  }
}

TEST(FuzzSpec, OmittedKeysKeepDefaults) {
  const auto spec = testing::parse_spec_string("seed=9,clients=12");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.clients, 12u);
  const ScenarioSpec defaults;
  EXPECT_EQ(spec.rounds, defaults.rounds);
  EXPECT_EQ(spec.rho, defaults.rho);
}

TEST(FuzzSpec, ReplayCommandEmbedsFullSpec) {
  const auto spec = testing::generate_scenario(3);
  const auto cmd = testing::replay_command(spec);
  EXPECT_NE(cmd.find("haccs_fuzz --replay"), std::string::npos);
  EXPECT_NE(cmd.find(testing::to_spec_string(spec)), std::string::npos);
}

TEST(FuzzSpec, HasOracleMatchesByPrefix) {
  std::vector<testing::Violation> v = {{"exception:engine_run", "boom"}};
  EXPECT_TRUE(testing::has_oracle(v, "exception"));
  EXPECT_TRUE(testing::has_oracle(v, "exception:engine_run"));
  EXPECT_FALSE(testing::has_oracle(v, "eq7_weights"));
}

// ---------------------------------------------------------------------------
// Slow tier: real oracle sweeps

OracleOptions fast_options() {
  OracleOptions options;
  options.differential = false;  // invariants only: no extra training runs
  options.srswr_draws = 1500;
  return options;
}

TEST(SlowFuzz, FirstSeedsPassAllOracles) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto spec = testing::generate_scenario(seed);
    const auto violations = testing::check_scenario(spec, fast_options());
    for (const auto& v : violations) {
      ADD_FAILURE() << "seed " << seed << " [" << v.oracle << "] "
                    << v.detail << "\n  reproduce: "
                    << testing::replay_command(spec);
    }
  }
}

TEST(SlowFuzz, DifferentialOraclesPassOnAHaccsScenario) {
  // One full differential pass (loopback dispatch, telemetry, kernels) on a
  // fixed mid-complexity spec, to keep the expensive oracles exercised in
  // every slow-tier run even if generated seeds drift away from them.
  const auto spec = testing::parse_spec_string(
      "seed=11,clients=10,per_round=3,rounds=3,classes=6,image=8,"
      "min_samples=20,max_samples=32,test_samples=6,selector=haccs-py,"
      "compression=topk,workers=2,crash=0.1");
  OracleOptions options;
  options.srswr_draws = 1500;
  const auto violations = testing::check_scenario(spec, options);
  for (const auto& v : violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

// The standing proof that the oracle suite has teeth: a deliberately-injected
// bug (drop Eq. 7's ACL normalization, compiled in behind HACCS_MUTATIONS)
// must be caught, shrunk, and replayable.
#if HACCS_MUTATIONS
ScenarioSpec mutation_prone_spec() {
  return testing::parse_spec_string(
      "seed=5,clients=12,per_round=3,rounds=2,classes=6,image=8,"
      "min_samples=20,max_samples=32,test_samples=6,selector=haccs-py,"
      "rho=0.5,crash=0.1,dropout=0.1,compression=int8");
}

TEST(SlowMutation, DroppedEq7NormalizationIsDetected) {
  const auto spec = mutation_prone_spec();
  {
    mutation::ScopedMutation armed(mutation::Kind::DropEq7Normalization);
    const auto violations = testing::check_scenario(spec, fast_options());
    EXPECT_TRUE(testing::has_oracle(violations, "eq7_weights"))
        << "the eq7_weights oracle missed the injected normalization bug";
  }
  // Disarmed, the identical spec must be clean — the detection above really
  // was the mutation, not a latent failure in the spec.
  const auto clean = testing::check_scenario(spec, fast_options());
  for (const auto& v : clean) {
    ADD_FAILURE() << "disarmed spec not clean: [" << v.oracle << "] "
                  << v.detail;
  }
}

TEST(SlowMutation, DroppedFailurePenaltyIsDetectedAndShrinks) {
  const auto spec = mutation_prone_spec();
  OracleOptions options = fast_options();
  options.srswr_draws = 0;  // the failure_penalty oracle needs no draws
  {
    mutation::ScopedMutation armed(mutation::Kind::DropFailurePenalty);
    const auto violations = testing::check_scenario(spec, options);
    EXPECT_TRUE(testing::has_oracle(violations, "failure_penalty"))
        << "the failure_penalty oracle missed the injected bug";

    const auto result =
        testing::shrink_scenario(spec, "failure_penalty", options);
    const auto still = testing::check_scenario(result.spec, options);
    EXPECT_TRUE(testing::has_oracle(still, "failure_penalty"));
    EXPECT_GT(result.reproductions, 0u);
    // The oracle is selector-local, so every workload knob shrinks away.
    EXPECT_EQ(result.spec.crash_rate, 0.0);
    EXPECT_EQ(result.spec.dropout, 0.0);
    EXPECT_EQ(result.spec.compression, fl::CompressionKind::None);
  }
  const auto clean = testing::check_scenario(spec, options);
  for (const auto& v : clean) {
    ADD_FAILURE() << "disarmed spec not clean: [" << v.oracle << "] "
                  << v.detail;
  }
}

TEST(SlowMutation, ClusterDistanceL2SwapIsDetectedAndShrinks) {
  const auto spec = mutation_prone_spec();
  OracleOptions options = fast_options();
  options.srswr_draws = 0;
  {
    mutation::ScopedMutation armed(mutation::Kind::ClusterDistanceL2);
    const auto violations = testing::check_scenario(spec, options);
    EXPECT_TRUE(testing::has_oracle(violations, "distance_recompute"))
        << "the distance_recompute oracle missed the L2-for-Hellinger swap";

    const auto result =
        testing::shrink_scenario(spec, "distance_recompute", options);
    const auto still = testing::check_scenario(result.spec, options);
    EXPECT_TRUE(testing::has_oracle(still, "distance_recompute"));
    EXPECT_GT(result.reproductions, 0u);
    EXPECT_EQ(result.spec.crash_rate, 0.0);
    EXPECT_EQ(result.spec.compression, fl::CompressionKind::None);
  }
  const auto clean = testing::check_scenario(spec, options);
  for (const auto& v : clean) {
    ADD_FAILURE() << "disarmed spec not clean: [" << v.oracle << "] "
                  << v.detail;
  }
}

TEST(SlowMutation, DetectedMutationShrinksToReplayableReproducer) {
  mutation::ScopedMutation armed(mutation::Kind::DropEq7Normalization);
  const auto spec = mutation_prone_spec();
  OracleOptions options = fast_options();
  options.srswr_draws = 0;  // eq7 recomputation alone catches this mutation
  const auto result = testing::shrink_scenario(spec, "eq7_weights", options);

  // The shrunk spec still reproduces and is simpler than where it started:
  // every pure-noise knob this spec carried must have been stripped.
  const auto violations = testing::check_scenario(result.spec, options);
  EXPECT_TRUE(testing::has_oracle(violations, "eq7_weights"));
  EXPECT_GT(result.reproductions, 0u);
  EXPECT_EQ(result.spec.crash_rate, 0.0);
  EXPECT_EQ(result.spec.dropout, 0.0);
  EXPECT_EQ(result.spec.compression, fl::CompressionKind::None);

  const auto cmd = testing::replay_command(result.spec);
  EXPECT_NE(cmd.find("haccs_fuzz --replay"), std::string::npos);
}
#endif  // HACCS_MUTATIONS

}  // namespace
}  // namespace haccs
