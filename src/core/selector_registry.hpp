// The selector registry: every client-selection strategy, named and built in
// one place (selector_registry.cpp). haccs_run, haccs_server, the bench
// harness and the scenario fuzzer all build through make_selector, so a name
// means the same object with the same config everywhere.
//
// In-process callers set SelectorContext::dataset; a serving coordinator
// holding only the wire-borne P(y) summaries sets ::summaries instead, and
// names needing more are rejected with an error naming the missing input.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/haccs_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/fl/selector.hpp"

namespace haccs::core {

/// What a selector needs to know about the population at construction,
/// ordered: a context offering an input can build everything that needs it
/// or less.
enum class SelectorInput {
  None,               ///< nothing (random, tifl, oort, gradient)
  ResponseSummaries,  ///< each client's P(y) summary (or the dataset)
  Dataset,            ///< the client data itself (P(X|y)/Q(X|y) summaries)
};

/// Everything a factory may read.
struct SelectorContext {
  /// Base scheduling config. `initial_loss` seeds every selector; the
  /// HACCS-family entries take rho, clustering, recluster, scale and
  /// privacy from it too (the `haccs-*` entries override `summary`).
  HaccsConfig haccs;
  /// Rounds the run will train (TiFL's credit schedule).
  std::size_t rounds = 200;
  /// The population, in-process. Preferred when both are set.
  const data::FederatedDataset* dataset = nullptr;
  /// The population as reported over the wire (serving mode), used as
  /// reported (privatized summaries included). A HaccsSelector built from
  /// them keeps them for HaccsSelector::recluster_live;
  /// `haccs.recluster_every` needs the dataset.
  const std::vector<ClientSummary>* summaries = nullptr;
};

struct SelectorInfo {
  std::string name;
  SelectorInput input = SelectorInput::None;
  /// The summary kind a HaccsSelector entry clusters on; empty for every
  /// selector that is not a HaccsSelector.
  std::optional<stats::SummaryKind> haccs_summary;
  /// True when the selector learns from each client's update delta
  /// (ClientSelector::report_update). Grouped and tree aggregation fold
  /// updates before the engine sees them, so such a selector cannot run
  /// there.
  bool needs_update_deltas = false;
};

/// Registered slugs buildable from `available`, in registry order.
std::vector<std::string> selector_names(
    SelectorInput available = SelectorInput::Dataset);

/// The same names joined by '|', for usage text.
std::string selector_usage(SelectorInput available = SelectorInput::Dataset);

/// Looks `name` up without building anything; an unknown name throws
/// std::invalid_argument listing every known name.
const SelectorInfo& selector_info(const std::string& name);

/// Throws std::invalid_argument naming the missing input when a context
/// offering only `available` cannot build `name` (or `name` is unknown).
void require_selector_input(const std::string& name, SelectorInput available);

/// Builds the named selector from `ctx`.
std::unique_ptr<fl::ClientSelector> make_selector(const std::string& name,
                                                  const SelectorContext& ctx);

}  // namespace haccs::core
