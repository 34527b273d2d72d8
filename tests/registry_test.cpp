// Tests for src/core/selector_registry: every registered name builds, its
// display name is stable, bad names and missing inputs are rejected with
// precise errors, and the serving path (built from wire P(y) summaries)
// selects exactly like the in-process path (built from the dataset).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/selector_registry.hpp"
#include "src/testing/scenario.hpp"

namespace haccs::core {
namespace {

data::FederatedDataset small_federation() {
  testing::ScenarioSpec spec;
  spec.seed = 11;
  spec.clients = 16;
  spec.classes = 6;
  spec.image = 8;
  spec.partition = data::PartitionKind::Dirichlet;
  spec.alpha = 1.0;
  return testing::build_dataset(spec);
}

std::vector<fl::ClientRuntimeInfo> make_view(std::size_t n) {
  std::vector<fl::ClientRuntimeInfo> view(n);
  for (std::size_t i = 0; i < n; ++i) {
    view[i].id = i;
    view[i].num_samples = 30 + 3 * i;
    view[i].latency_s = 1.0 + 0.37 * static_cast<double>((i * 7) % n);
    view[i].available = true;
  }
  return view;
}

std::string what_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return "";
}

TEST(SelectorRegistry, EveryNameBuildsFromADatasetWithItsDisplayName) {
  const std::map<std::string, std::string> labels = {
      {"random", "Random"},
      {"tifl", "TiFL"},
      {"oort", "Oort"},
      {"haccs-py", "HACCS-P(y)"},
      {"haccs-pxy", "HACCS-P(X|y)"},
      {"haccs-qxy", "HACCS-Q(X|y)"},
      {"gradient", "HACCS-gradient"},
      {"stratified", "HACCS-stratified"},
      {"dpp", "DPP"},
      {"fedlecc", "FedLECC"},
      {"hics", "HiCS"},
  };
  const auto names = selector_names();
  ASSERT_EQ(names.size(), labels.size());
  const auto fed = small_federation();
  SelectorContext ctx;
  ctx.dataset = &fed;
  for (const auto& name : names) {
    ASSERT_TRUE(labels.count(name)) << "unexpected registry name " << name;
    EXPECT_EQ(make_selector(name, ctx)->name(), labels.at(name));
    EXPECT_EQ(selector_info(name).name, name);
  }
}

TEST(SelectorRegistry, UnknownNameErrorListsEveryName) {
  const std::string what = what_of([] { selector_info("hacs-py"); });
  EXPECT_NE(what.find("unknown selector 'hacs-py'"), std::string::npos) << what;
  for (const auto& name : selector_names()) {
    EXPECT_NE(what.find(name), std::string::npos) << name << " not in: " << what;
  }
  SelectorContext ctx;
  EXPECT_THROW(make_selector("bogus", ctx), std::invalid_argument);
}

TEST(SelectorRegistry, OnlyGradientNeedsUpdateDeltas) {
  // GradientClusterSelector clusters on report_update's deltas; grouped and
  // tree aggregation never deliver them, so haccs_server refuses that pair
  // on this bit.
  for (const auto& name : selector_names()) {
    EXPECT_EQ(selector_info(name).needs_update_deltas, name == "gradient")
        << name;
  }
}

TEST(SelectorRegistry, DatasetOnlyNamesAreRejectedFromSummaries) {
  const auto fed = small_federation();
  const auto summaries = compute_summaries(fed, HaccsConfig{});
  SelectorContext ctx;
  ctx.summaries = &summaries;
  for (const std::string name : {"haccs-pxy", "haccs-qxy"}) {
    EXPECT_EQ(selector_info(name).input, SelectorInput::Dataset);
    const std::string what = what_of([&] { make_selector(name, ctx); });
    EXPECT_NE(what.find("needs the client dataset"), std::string::npos)
        << what;
    EXPECT_THROW(
        require_selector_input(name, SelectorInput::ResponseSummaries),
        std::invalid_argument);
  }
  const std::string usage = selector_usage(SelectorInput::ResponseSummaries);
  EXPECT_EQ(usage.find("haccs-pxy"), std::string::npos) << usage;
  EXPECT_NE(usage.find("haccs-py"), std::string::npos) << usage;

  // No population at all: only the population-free selectors build.
  const std::string what =
      what_of([] { make_selector("dpp", SelectorContext{}); });
  EXPECT_NE(what.find("needs P(y) client summaries"), std::string::npos)
      << what;
  EXPECT_NO_THROW(make_selector("oort", SelectorContext{}));

  // Summaries of the wrong kind are named, not silently misread.
  HaccsConfig conditional;
  conditional.summary = stats::SummaryKind::Conditional;
  const auto wrong_kind = compute_summaries(fed, conditional);
  ctx.summaries = &wrong_kind;
  const std::string kind_what = what_of([&] { make_selector("hics", ctx); });
  EXPECT_NE(kind_what.find("P(X|y)"), std::string::npos) << kind_what;
}

TEST(SelectorRegistry, SummariesPathSelectsLikeTheDatasetPath) {
  const auto fed = small_federation();
  SelectorContext base;
  base.haccs.rho = 0.5;
  base.haccs.initial_loss = 1.9;
  // A fixed-eps DBSCAN cut over a non-default distance: on Dirichlet
  // mixtures the clusters hinge on the exact distance values, so a wire path
  // that measured them differently (or ignored response_distance) shows.
  base.haccs.algorithm = ClusterAlgorithm::Dbscan;
  base.haccs.response_distance = stats::DistanceKind::TotalVariation;
  base.rounds = 10;
  const auto summaries = compute_summaries(fed, base.haccs);

  SelectorContext from_data = base;
  from_data.dataset = &fed;
  SelectorContext from_wire = base;
  from_wire.summaries = &summaries;

  const auto names = selector_names(SelectorInput::ResponseSummaries);
  EXPECT_GE(names.size(), 8u);
  for (const auto& name : names) {
    auto a = make_selector(name, from_data);
    auto b = make_selector(name, from_wire);
    auto view = make_view(fed.num_clients());
    a->initialize(view);
    b->initialize(view);
    Rng ra(5), rb(5);
    for (std::size_t epoch = 0; epoch < 10; ++epoch) {
      view[epoch % view.size()].available = epoch % 4 != 3;
      const auto picked = a->select(4, view, epoch, ra);
      ASSERT_EQ(picked, b->select(4, view, epoch, rb))
          << name << " diverges at epoch " << epoch;
      for (std::size_t i = 0; i < picked.size(); ++i) {
        const std::size_t id = picked[i];
        if (i == 0 && epoch % 3 == 1) {
          a->report_failure(id, epoch, fl::FailureKind::Crash);
          b->report_failure(id, epoch, fl::FailureKind::Crash);
        } else {
          const double loss = 2.0 - 0.1 * static_cast<double>(epoch) +
                              0.01 * static_cast<double>(id);
          a->report_result(id, loss, epoch);
          b->report_result(id, loss, epoch);
        }
      }
    }
  }
}

}  // namespace
}  // namespace haccs::core
