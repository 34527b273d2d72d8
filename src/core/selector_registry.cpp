#include "src/core/selector_registry.hpp"

#include <stdexcept>

#include "src/core/gradient_selector.hpp"
#include "src/core/haccs_selector.hpp"
#include "src/core/stratified_selector.hpp"
#include "src/select/dpp.hpp"
#include "src/select/fedlecc.hpp"
#include "src/select/hics.hpp"
#include "src/select/oort.hpp"
#include "src/select/random_selector.hpp"
#include "src/select/tifl.hpp"

namespace haccs::core {

namespace {

using SelectorPtr = std::unique_ptr<fl::ClientSelector>;

/// `config` is ctx.haccs with the entry's summary kind applied.
using Factory = SelectorPtr (*)(const SelectorContext& ctx,
                                const HaccsConfig& config);

struct Entry {
  SelectorInfo info;
  Factory build;
};

SelectorPtr make_haccs(const SelectorContext& ctx, const HaccsConfig& config) {
  if (ctx.dataset) return std::make_unique<HaccsSelector>(*ctx.dataset, config);
  return std::make_unique<HaccsSelector>(
      HaccsSelector::from_summaries(*ctx.summaries, config));
}

/// The label-histogram selectors: client i's per-class counts come straight
/// from its data, or equivalently from its reported P(y) summary.
template <typename Selector, typename Config>
SelectorPtr make_label_count_selector(const SelectorContext& ctx,
                                      const HaccsConfig& config) {
  std::vector<std::vector<double>> label_counts;
  if (ctx.dataset) {
    for (const auto& client : ctx.dataset->clients) {
      label_counts.push_back(client.train.label_counts());
    }
  } else {
    for (const auto& s : *ctx.summaries) {
      const auto counts = s.response.label_counts.counts();
      label_counts.emplace_back(counts.begin(), counts.end());
    }
  }
  Config cfg;
  cfg.initial_loss = config.initial_loss;
  return std::make_unique<Selector>(std::move(label_counts), cfg);
}

const std::vector<Entry>& entries() {
  using enum SelectorInput;
  static const std::vector<Entry> kEntries = {
      {{"random", None, {}},
       [](const SelectorContext&, const HaccsConfig&) -> SelectorPtr {
         return std::make_unique<select::RandomSelector>();
       }},
      {{"tifl", None, {}},
       [](const SelectorContext& ctx, const HaccsConfig& config) -> SelectorPtr {
         select::TiflConfig cfg;
         cfg.expected_rounds = ctx.rounds;
         cfg.initial_loss = config.initial_loss;
         return std::make_unique<select::TiflSelector>(cfg);
       }},
      {{"oort", None, {}},
       [](const SelectorContext&, const HaccsConfig& config) -> SelectorPtr {
         select::OortConfig cfg;
         cfg.initial_loss = config.initial_loss;
         return std::make_unique<select::OortSelector>(cfg);
       }},
      {{"haccs-py", ResponseSummaries, stats::SummaryKind::Response},
       make_haccs},
      {{"haccs-pxy", Dataset, stats::SummaryKind::Conditional}, make_haccs},
      {{"haccs-qxy", Dataset, stats::SummaryKind::Quantile}, make_haccs},
      {{"gradient", None, {}, /*needs_update_deltas=*/true},
       [](const SelectorContext&, const HaccsConfig& config) -> SelectorPtr {
         GradientSelectorConfig cfg;
         cfg.scheduling = config;
         return std::make_unique<GradientClusterSelector>(cfg);
       }},
      {{"stratified", ResponseSummaries, {}},
       [](const SelectorContext& ctx, const HaccsConfig& config) -> SelectorPtr {
         return std::make_unique<StratifiedSelector>(
             ctx.dataset ? cluster_clients(*ctx.dataset, config)
                         : cluster_summaries(*ctx.summaries, config));
       }},
      {{"dpp", ResponseSummaries, {}},
       make_label_count_selector<select::DppSelector, select::DppConfig>},
      {{"fedlecc", ResponseSummaries, {}},
       make_label_count_selector<select::FedLeccSelector,
                                 select::FedLeccConfig>},
      {{"hics", ResponseSummaries, {}},
       make_label_count_selector<select::HicsSelector, select::HicsConfig>},
  };
  return kEntries;
}

std::string describe(SelectorInput input) {
  switch (input) {
    case SelectorInput::None: return "no population input";
    case SelectorInput::ResponseSummaries: return "P(y) client summaries";
    case SelectorInput::Dataset: return "the client dataset";
  }
  throw std::invalid_argument("describe: bad SelectorInput");
}

const Entry& find(const std::string& name) {
  for (const auto& entry : entries()) {
    if (entry.info.name == name) return entry;
  }
  throw std::invalid_argument("unknown selector '" + name +
                              "' (known: " + selector_usage() + ")");
}

}  // namespace

std::vector<std::string> selector_names(SelectorInput available) {
  std::vector<std::string> names;
  for (const auto& entry : entries()) {
    if (entry.info.input <= available) names.push_back(entry.info.name);
  }
  return names;
}

std::string selector_usage(SelectorInput available) {
  std::string usage;
  for (const auto& name : selector_names(available)) {
    usage += (usage.empty() ? "" : "|") + name;
  }
  return usage;
}

const SelectorInfo& selector_info(const std::string& name) {
  return find(name).info;
}

void require_selector_input(const std::string& name, SelectorInput available) {
  const SelectorInfo& info = selector_info(name);
  if (info.input > available) {
    throw std::invalid_argument("selector '" + name + "' needs " +
                                describe(info.input) + " (available: " +
                                describe(available) + ")");
  }
}

std::unique_ptr<fl::ClientSelector> make_selector(const std::string& name,
                                                  const SelectorContext& ctx) {
  const Entry& entry = find(name);
  const SelectorInput available =
      ctx.dataset     ? SelectorInput::Dataset
      : ctx.summaries ? SelectorInput::ResponseSummaries
                      : SelectorInput::None;
  require_selector_input(name, available);
  if (!ctx.dataset && entry.info.input == SelectorInput::ResponseSummaries) {
    for (const auto& s : *ctx.summaries) {
      if (s.kind != stats::SummaryKind::Response) {
        throw std::invalid_argument("selector '" + name + "' needs " +
                                    describe(entry.info.input) + ", got " +
                                    stats::to_string(s.kind) + " summaries");
      }
    }
  }
  HaccsConfig config = ctx.haccs;
  if (entry.info.haccs_summary) config.summary = *entry.info.haccs_summary;
  return entry.build(ctx, config);
}

}  // namespace haccs::core
