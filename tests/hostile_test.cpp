// Pinned deterministic tests for the hostile-world scenario engine and the
// selector zoo (ISSUE 10 / TESTING.md "Hostile-world shapes"):
//
//   * one pinned test per hostile shape — flash crowd, diurnal wave,
//     correlated regional outage, mid-training label drift, adversarial
//     (targeted) stragglers;
//   * HaccsSelector::recluster_live driven by an outage schedule's liveness
//     edges;
//   * selector-zoo unit tests for DppSelector / FedLeccSelector /
//     HicsSelector (contract, save/load round-trip, failure reporting,
//     cluster and diversity sanity);
//   * ScenarioSpec round-trip over every key and the parser's nearest-key
//     suggestion;
//   * an end-to-end check_scenario pin for every hostile shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/haccs_selector.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/selector_registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/select/dpp.hpp"
#include "src/select/fedlecc.hpp"
#include "src/select/hics.hpp"
#include "src/sim/dropout.hpp"
#include "src/sim/faults.hpp"
#include "src/testing/oracles.hpp"
#include "src/testing/scenario.hpp"

namespace haccs {
namespace {

using sim::HostileKind;
using testing::ScenarioSpec;

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.seed = 7;
  spec.clients = 10;
  spec.per_round = 3;
  spec.rounds = 4;
  spec.classes = 6;
  spec.image = 8;
  spec.min_samples = 20;
  spec.max_samples = 32;
  spec.test_samples = 6;
  return spec;
}

std::vector<fl::ClientRuntimeInfo> make_view(std::size_t n) {
  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    view[i].num_samples = 24 + 2 * i;
    view[i].latency_s = 1.0 + 0.1 * static_cast<double>(i);
    view[i].available = true;
  }
  return view;
}

// ---------------------------------------------------------------------------
// Pinned hostile shape 1: flash crowd

TEST(HostileShapes, FlashCrowdCohortJoinsAtOnce) {
  const auto schedule = sim::make_flash_crowd(10, 0.3, /*join_epoch=*/3, 42);
  ASSERT_EQ(schedule->num_clients(), 10u);

  // Before the join epoch: exactly round(0.3 * 10) = 3 clients absent, and
  // it is the same cohort every epoch (no per-epoch re-draw).
  std::vector<bool> first = schedule->available(0);
  std::size_t absent = 0;
  for (const bool up : first) absent += up ? 0 : 1;
  EXPECT_EQ(absent, 3u);
  for (std::size_t e = 1; e < 3; ++e) {
    EXPECT_EQ(schedule->available(e), first) << "cohort re-drawn at " << e;
  }
  // From the join epoch onward everyone is reachable — the selector's view
  // of the population jumps in a single round.
  for (std::size_t e = 3; e < 8; ++e) {
    for (const bool up : schedule->available(e)) EXPECT_TRUE(up);
  }
}

// ---------------------------------------------------------------------------
// Pinned hostile shape 2: diurnal availability wave

TEST(HostileShapes, DiurnalWaveIsPeriodicWithFixedTrough) {
  constexpr std::size_t kPeriod = 4;
  const auto schedule = sim::make_diurnal_wave(12, 0.5, kPeriod, 99);

  // Periodic: the mask repeats with the wave period.
  for (std::size_t e = 0; e < kPeriod; ++e) {
    EXPECT_EQ(schedule->available(e), schedule->available(e + kPeriod));
    EXPECT_EQ(schedule->available(e), schedule->available(e + 3 * kPeriod));
  }
  // Every client is down for exactly round(0.5 * 4) = 2 epochs per period —
  // an oscillation, not an independent coin flip.
  for (std::size_t c = 0; c < 12; ++c) {
    std::size_t down = 0;
    for (std::size_t e = 0; e < kPeriod; ++e) {
      if (!schedule->available(e)[c]) ++down;
    }
    EXPECT_EQ(down, 2u) << "client " << c;
  }
  // Never a fully-dark epoch: with 12 clients spread over 4 phases, some
  // timezone is always awake.
  for (std::size_t e = 0; e < 2 * kPeriod; ++e) {
    const auto mask = schedule->available(e);
    EXPECT_TRUE(std::any_of(mask.begin(), mask.end(), [](bool b) { return b; }));
  }
}

// ---------------------------------------------------------------------------
// Pinned hostile shape 3: correlated regional outage

TEST(HostileShapes, RegionalOutageDarkensWholeRegionsTogether) {
  const auto schedule = sim::make_regional_outage(
      12, /*regions=*/4, /*down_fraction=*/0.5, /*from=*/2, /*duration=*/2, 7);

  // Outside the outage window everyone is reachable.
  for (const std::size_t e : {0u, 1u, 4u, 5u}) {
    for (const bool up : schedule->available(e)) EXPECT_TRUE(up);
  }
  // During [2, 4): ceil(0.5 * 4) = 2 regions are dark — a nonempty set of
  // clients goes down together and the SAME set stays down for the whole
  // window (correlation a per-client dropout rate can never produce).
  const auto during = schedule->available(2);
  std::size_t dark = 0;
  for (const bool up : during) dark += up ? 0 : 1;
  EXPECT_GT(dark, 0u);
  EXPECT_LT(dark, 12u);
  EXPECT_EQ(schedule->available(3), during);
}

TEST(HostileShapes, OutageLivenessEdgesDriveLiveReclustering) {
  obs::set_metrics_enabled(true);
  const auto spec = small_spec();
  const auto fed = testing::build_dataset(spec);
  const auto config = testing::build_haccs_config(spec);

  // 4 members (regions); member m hosts the clients dark together in an
  // outage: here simply c % 4 == m, matching the schedule's region arity.
  std::vector<std::vector<std::size_t>> clients_of_member(4);
  for (std::size_t c = 0; c < fed.clients.size(); ++c) {
    clients_of_member[c % 4].push_back(c);
  }
  std::vector<bool> live(fed.clients.size(), true);
  auto on_member = [&](std::size_t member, bool alive) {
    for (std::size_t c : clients_of_member[member]) live[c] = alive;
  };
  core::HaccsSelector selector(fed, config);
  const auto startup = selector.cluster_of();

  // Drive the selector with the membership transitions an outage schedule
  // produces: regions 0 and 1 go dark at the outage, then recover.
  on_member(0, false);
  on_member(1, false);
  EXPECT_TRUE(selector.recluster_live(live));
  ASSERT_EQ(selector.cluster_of().size(), fed.clients.size());
  for (const int label : selector.cluster_of()) EXPECT_GE(label, 0);
  for (std::size_t c = 0; c < live.size(); ++c) {
    if (live[c]) continue;
    const auto cluster = static_cast<std::size_t>(selector.cluster_of()[c]);
    EXPECT_EQ(selector.clusters()[cluster].size(), 1u) << "client " << c;
  }

  on_member(0, true);
  on_member(1, true);
  EXPECT_TRUE(selector.recluster_live(live));
  EXPECT_EQ(selector.cluster_of(), startup);
  EXPECT_FALSE(selector.recluster_live(live));  // no churn -> no re-cluster
  obs::set_metrics_enabled(false);
}

// ---------------------------------------------------------------------------
// Pinned hostile shape 4: mid-training label-distribution drift

TEST(HostileShapes, DriftHookMutatesDatasetOnlyAtTriggerEpoch) {
  auto spec = small_spec();
  spec.hostile = HostileKind::Drift;
  spec.hostile_frac = 0.5;
  spec.hostile_at = 2;

  auto label_counts = [](const data::FederatedDataset& fed) {
    std::vector<std::vector<double>> out;
    for (const auto& client : fed.clients) {
      out.push_back(client.train.label_counts());
    }
    return out;
  };

  auto fed = testing::build_dataset(spec);
  const auto before = label_counts(fed);
  auto hook = testing::build_drift_hook(spec, fed);
  ASSERT_TRUE(static_cast<bool>(hook));

  hook(0);
  hook(1);
  EXPECT_EQ(label_counts(fed), before) << "drift fired before hostile_at";

  hook(2);
  const auto after = label_counts(fed);
  std::size_t changed = 0;
  for (std::size_t c = 0; c < before.size(); ++c) {
    if (after[c] != before[c]) ++changed;
    // Drift redraws distributions, not dataset sizes.
    double total_before = 0.0, total_after = 0.0;
    for (const double v : before[c]) total_before += v;
    for (const double v : after[c]) total_after += v;
    EXPECT_EQ(total_before, total_after) << "client " << c;
  }
  EXPECT_GT(changed, 0u) << "drift changed no client at the trigger epoch";

  hook(3);
  EXPECT_EQ(label_counts(fed), after) << "drift re-fired after hostile_at";

  // Seeded determinism: a fresh dataset + hook lands on identical counts.
  auto fed2 = testing::build_dataset(spec);
  auto hook2 = testing::build_drift_hook(spec, fed2);
  hook2(2);
  EXPECT_EQ(label_counts(fed2), after);

  // Benign specs get no hook at all.
  auto benign = small_spec();
  auto fed3 = testing::build_dataset(benign);
  EXPECT_FALSE(static_cast<bool>(testing::build_drift_hook(benign, fed3)));
}

// ---------------------------------------------------------------------------
// Pinned hostile shape 5: adversarial (targeted) stragglers

TEST(HostileShapes, TargetedStragglersSlowFixedCohortFromTriggerEpoch) {
  sim::FaultModelConfig base;
  base.crash_rate = 0.1;
  base.straggler_rate = 0.2;
  base.seed = 11;

  sim::FaultModelConfig hostile = base;
  hostile.targeted_fraction = 0.5;
  hostile.targeted_multiplier = 8.0;
  hostile.targeted_from = 2;

  const sim::FaultModel baseline(base);
  const sim::FaultModel adversarial(hostile);
  constexpr std::size_t kClients = 16;

  // The cohort is a pure function of (seed, client): nonempty, proper
  // subset, and identical on a second model with the same config.
  std::vector<bool> cohort(kClients);
  std::size_t targeted_count = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    cohort[c] = adversarial.targeted(c);
    targeted_count += cohort[c] ? 1 : 0;
    EXPECT_FALSE(baseline.targeted(c));
  }
  EXPECT_GT(targeted_count, 0u);
  EXPECT_LT(targeted_count, kClients);
  const sim::FaultModel again(hostile);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(again.targeted(c), cohort[c]);
  }

  auto same_event = [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
    return a.kind == b.kind && a.crash_frac == b.crash_frac &&
           a.latency_multiplier == b.latency_multiplier &&
           a.corruption == b.corruption;
  };
  for (std::size_t e = 0; e < 6; ++e) {
    for (std::size_t c = 0; c < kClients; ++c) {
      const auto expect = baseline.at(c, e);
      const auto got = adversarial.at(c, e);
      if (!cohort[c] || e < 2) {
        // Untargeted clients — and everyone before the trigger epoch — see
        // the IDENTICAL fault trace: targeting must not perturb the shared
        // random stream the paper's methodology depends on.
        EXPECT_TRUE(same_event(got, expect)) << "client " << c << " epoch " << e;
        continue;
      }
      if (expect.kind == sim::FaultKind::Crash ||
          expect.kind == sim::FaultKind::Corruption) {
        // Targeting slows uploads; it never cancels a crash or corruption.
        EXPECT_TRUE(same_event(got, expect)) << "client " << c << " epoch " << e;
      } else {
        EXPECT_EQ(got.kind, sim::FaultKind::Straggler);
        EXPECT_GE(got.latency_multiplier, 8.0);
        // Stacking: a random Pareto excursion beyond the targeted multiplier
        // is kept (max, not overwrite).
        EXPECT_GE(got.latency_multiplier, expect.latency_multiplier);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// build_availability composes base dropout with the hostile shape

TEST(HostileShapes, AvailabilityComposesDropoutAndShape) {
  auto spec = small_spec();
  spec.dropout = 0.3;
  spec.hostile = HostileKind::FlashCrowd;
  spec.hostile_frac = 0.4;
  spec.hostile_at = 2;

  const auto composed = testing::build_availability(spec);
  const auto base = sim::make_per_epoch_dropout(spec.clients, spec.dropout,
                                                spec.seed + 101);
  const auto shape = sim::make_flash_crowd(spec.clients, spec.hostile_frac,
                                           spec.hostile_at, spec.seed + 211);
  for (std::size_t e = 0; e < 6; ++e) {
    const auto got = composed->available(e);
    const auto a = base->available(e);
    const auto b = shape->available(e);
    for (std::size_t c = 0; c < spec.clients; ++c) {
      EXPECT_EQ(got[c], a[c] && b[c]) << "client " << c << " epoch " << e;
    }
  }

  // Benign specs with no dropout collapse to always-available.
  const auto benign = testing::build_availability(small_spec());
  for (std::size_t e = 0; e < 4; ++e) {
    for (const bool up : benign->available(e)) EXPECT_TRUE(up);
  }
}

// ---------------------------------------------------------------------------
// Selector zoo: DPP / FedLECC / HiCS unit tests

const std::vector<std::string> kZoo = {"dpp", "fedlecc", "hics"};

std::unique_ptr<fl::ClientSelector> make(const std::string& name,
                                         const data::FederatedDataset& fed) {
  core::SelectorContext ctx;
  ctx.dataset = &fed;
  return core::make_selector(name, ctx);
}

TEST(SelectorZoo, FillsToAvailabilityBoundWithDistinctIds) {
  const auto fed = testing::build_dataset(small_spec());
  for (const auto& name : kZoo) {
    auto selector = make(name, fed);
    auto view = make_view(fed.clients.size());
    selector->initialize(view);
    Rng rng(123);
    for (std::size_t t = 0; t < 20; ++t) {
      const auto picked = selector->select(3, view, t, rng);
      ASSERT_EQ(picked.size(), 3u) << name;
      std::set<std::size_t> distinct(picked.begin(), picked.end());
      EXPECT_EQ(distinct.size(), picked.size()) << name;
      for (const std::size_t id : picked) EXPECT_LT(id, view.size()) << name;
    }
    // Only 2 clients up -> exactly those 2 selected.
    for (auto& c : view) c.available = false;
    view[1].available = view[6].available = true;
    const auto pair = selector->select(3, view, 0, rng);
    std::set<std::size_t> got(pair.begin(), pair.end());
    EXPECT_EQ(got, (std::set<std::size_t>{1, 6})) << name;
    // Nobody up -> nobody selected.
    view[1].available = view[6].available = false;
    EXPECT_TRUE(selector->select(3, view, 0, rng).empty()) << name;
  }
}

TEST(SelectorZoo, SaveLoadRoundTripIsByteIdenticalAndBehaviorPreserving) {
  const auto fed = testing::build_dataset(small_spec());
  for (const auto& name : kZoo) {
    auto a = make(name, fed);
    const auto view = make_view(fed.clients.size());
    a->initialize(view);
    Rng drive(55);
    for (std::size_t e = 0; e < 3; ++e) {
      const auto picked = a->select(3, view, e, drive);
      for (std::size_t i = 0; i < picked.size(); ++i) {
        if (i == 0) {
          a->report_failure(picked[i], e, fl::FailureKind::Crash);
        } else {
          a->report_result(picked[i], 2.0 - 0.1 * static_cast<double>(e), e);
        }
      }
    }
    const auto blob = a->save_state();
    ASSERT_FALSE(blob.empty()) << name;

    auto b = make(name, fed);
    b->initialize(view);
    b->load_state(blob);
    EXPECT_EQ(b->save_state(), blob) << name << ": reserialization differs";

    Rng ra(77), rb(77);
    for (std::size_t e = 3; e < 6; ++e) {
      EXPECT_EQ(a->select(3, view, e, ra), b->select(3, view, e, rb))
          << name << ": resumed selector diverges at epoch " << e;
    }

    // A blob from a different selector must be rejected, not half-applied.
    auto foreign = make(name, fed);
    foreign->initialize(view);
    auto donor = make(kZoo[name == "dpp" ? 1 : 0], fed);
    donor->initialize(view);
    EXPECT_THROW(foreign->load_state(donor->save_state()), std::runtime_error)
        << name;
  }
}

TEST(SelectorZoo, ReportedFailuresLowerReliabilityAndSuccessesRecoverIt) {
  const auto fed = testing::build_dataset(small_spec());
  const auto view = make_view(fed.clients.size());

  std::vector<std::vector<double>> counts;
  for (const auto& client : fed.clients) {
    counts.push_back(client.train.label_counts());
  }
  select::DppSelector dpp(counts, select::DppConfig{});
  select::FedLeccSelector fedlecc(counts, select::FedLeccConfig{});
  select::HicsSelector hics(counts, select::HicsConfig{});
  dpp.initialize(view);
  fedlecc.initialize(view);
  hics.initialize(view);

  auto probe = [&](auto& selector) {
    const double fresh = selector.reliability_of(4);
    EXPECT_DOUBLE_EQ(fresh, 1.0);
    selector.report_failure(4, 0, fl::FailureKind::Crash);
    const double punished = selector.reliability_of(4);
    EXPECT_LT(punished, fresh);
    selector.report_result(4, 1.2, 1);
    EXPECT_GT(selector.reliability_of(4), punished);
  };
  probe(dpp);
  probe(fedlecc);
  probe(hics);
}

TEST(SelectorZoo, FedLeccClustersIdenticalDistributionsTogether) {
  // Two far-apart groups of identical label distributions: DBSCAN at
  // eps = 0.35 must find exactly two clusters with no cross-membership.
  std::vector<std::vector<double>> counts;
  for (int i = 0; i < 3; ++i) counts.push_back({10.0, 0.0, 0.0, 0.0});
  for (int i = 0; i < 3; ++i) counts.push_back({0.0, 0.0, 0.0, 10.0});
  select::FedLeccSelector selector(counts, select::FedLeccConfig{});
  EXPECT_EQ(selector.num_clusters(), 2u);
  EXPECT_EQ(selector.cluster_of(0), selector.cluster_of(1));
  EXPECT_EQ(selector.cluster_of(0), selector.cluster_of(2));
  EXPECT_EQ(selector.cluster_of(3), selector.cluster_of(4));
  EXPECT_NE(selector.cluster_of(0), selector.cluster_of(3));
}

TEST(SelectorZoo, DppKernelPrefersDiverseSets) {
  // Clients 0 and 1 share a distribution; client 2 is disjoint. Similarity
  // is 1 on the diagonal/twins, and the minimal value for the disjoint pair,
  // so a 2-element draw should almost always include client 2.
  std::vector<std::vector<double>> counts = {
      {8.0, 0.0, 0.0, 0.0},
      {8.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 8.0},
  };
  select::DppSelector selector(counts, select::DppConfig{});
  EXPECT_DOUBLE_EQ(selector.similarity(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(selector.similarity(0, 1), 1.0);
  EXPECT_NEAR(selector.similarity(0, 2), 0.0, 1e-9);

  auto view = make_view(3);
  for (auto& c : view) c.num_samples = 30;  // equal quality
  view[0].latency_s = view[1].latency_s = view[2].latency_s = 1.0;
  selector.initialize(view);
  Rng rng(9);
  std::size_t includes_disjoint = 0;
  constexpr std::size_t kDraws = 200;
  for (std::size_t t = 0; t < kDraws; ++t) {
    const auto picked = selector.select(2, view, 0, rng);
    ASSERT_EQ(picked.size(), 2u);
    if (std::find(picked.begin(), picked.end(), 2u) != picked.end()) {
      ++includes_disjoint;
    }
  }
  EXPECT_GT(includes_disjoint, (8 * kDraws) / 10)
      << "DPP rarely picked the only diverse client";
}

TEST(SelectorZoo, HicsScoresSkewedClientsAboveAverageOnes) {
  // Three average clients and one rare-label client: the rare client's
  // heterogeneity (distance to the population mean) must dominate its
  // selection weight when loss, reliability and latency are all equal.
  std::vector<std::vector<double>> counts = {
      {5.0, 5.0, 5.0, 5.0},
      {5.0, 5.0, 5.0, 5.0},
      {5.0, 5.0, 5.0, 5.0},
      {0.0, 0.0, 0.0, 20.0},
  };
  select::HicsSelector selector(counts, select::HicsConfig{});
  auto view = make_view(4);
  for (auto& c : view) c.latency_s = 1.0;
  selector.initialize(view);
  Rng rng(11);
  std::vector<std::size_t> picks(view.size(), 0);
  for (int t = 0; t < 400; ++t) ++picks[selector.select(1, view, 0, rng)[0]];
  for (int c = 0; c < 3; ++c) EXPECT_LT(picks[c], picks[3]) << "client " << c;
}

// ---------------------------------------------------------------------------
// Spec round-trip and the parser's nearest-key suggestion

TEST(ScenarioSpecRoundTrip, GeneratedSpecsPrintParsePrintIdentically) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto spec = testing::generate_scenario(seed);
    const auto printed = testing::to_spec_string(spec);
    const auto reparsed = testing::parse_spec_string(printed);
    EXPECT_EQ(testing::to_spec_string(reparsed), printed) << "seed " << seed;
  }
}

TEST(ScenarioSpecRoundTrip, PrintedSpecCarriesEveryHostileKey) {
  auto spec = small_spec();
  spec.hostile = HostileKind::Outage;
  spec.hostile_frac = 0.5;
  spec.hostile_at = 2;
  spec.hostile_span = 3;
  const auto printed = testing::to_spec_string(spec);
  EXPECT_NE(printed.find("hostile=outage"), std::string::npos) << printed;
  EXPECT_NE(printed.find("hostile_frac=0.5"), std::string::npos) << printed;
  EXPECT_NE(printed.find("hostile_at=2"), std::string::npos) << printed;
  EXPECT_NE(printed.find("hostile_span=3"), std::string::npos) << printed;

  const auto reparsed = testing::parse_spec_string(printed);
  EXPECT_EQ(reparsed.hostile, HostileKind::Outage);
  EXPECT_DOUBLE_EQ(reparsed.hostile_frac, 0.5);
  EXPECT_EQ(reparsed.hostile_at, 2u);
  EXPECT_EQ(reparsed.hostile_span, 3u);
}

TEST(ScenarioSpecRoundTrip, EveryHostileKindNameRoundTrips) {
  for (const auto kind :
       {HostileKind::None, HostileKind::FlashCrowd, HostileKind::Diurnal,
        HostileKind::Outage, HostileKind::Drift,
        HostileKind::TargetedStragglers}) {
    EXPECT_EQ(sim::parse_hostile_kind(sim::to_string(kind)), kind);
  }
  for (const auto& name : kZoo) {
    EXPECT_EQ(testing::parse_spec_string("selector=" + name).selector, name);
  }
}

TEST(ScenarioSpecRoundTrip, UnknownKeySuggestsNearestKnownKey) {
  try {
    testing::parse_spec_string("seed=1,hostile_fracc=0.4");
    FAIL() << "parser accepted an unknown key";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown spec key"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'hostile_frac'"), std::string::npos)
        << what;
  }
  // Gibberish far from every key gets the plain error, no bogus suggestion.
  try {
    testing::parse_spec_string("qqqqqqqqqqqq=1");
    FAIL() << "parser accepted an unknown key";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown spec key"), std::string::npos) << what;
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// End-to-end pin: every hostile shape runs clean through the oracle suite

TEST(HostileShapes, EveryShapeRunsCleanThroughCheckScenario) {
  testing::OracleOptions options;
  options.differential = false;  // covered by the fuzz smoke; keep tier-1 fast
  options.srswr_draws = 800;
  for (const auto kind :
       {HostileKind::FlashCrowd, HostileKind::Diurnal, HostileKind::Outage,
        HostileKind::Drift, HostileKind::TargetedStragglers}) {
    auto spec = small_spec();
    spec.hostile = kind;
    spec.hostile_frac = 0.4;
    spec.hostile_at = 1;
    spec.hostile_span = 2;
    spec.selector = "haccs-py";
    const auto violations = testing::check_scenario(spec, options);
    for (const auto& v : violations) {
      ADD_FAILURE() << sim::to_string(kind) << ": " << v.oracle << " — "
                    << v.detail << "\n  " << testing::replay_command(spec);
    }
  }
  // And the three new selectors under the nastiest availability shape.
  for (const auto& selector : kZoo) {
    auto spec = small_spec();
    spec.hostile = HostileKind::Outage;
    spec.hostile_frac = 0.5;
    spec.selector = selector;
    const auto violations = testing::check_scenario(spec, options);
    for (const auto& v : violations) {
      ADD_FAILURE() << selector << ": " << v.oracle
                    << " — " << v.detail << "\n  "
                    << testing::replay_command(spec);
    }
  }
}

}  // namespace
}  // namespace haccs
