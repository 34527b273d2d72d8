// Tests for the fast exact clustering path: client-ordered noise forks in
// compute_summaries, the prepared-row Hellinger in summary_distances (bit
// for bit against the per-pair ClientSummary::distance and the textbook
// Eq. 3 loop), HaccsSelector's exact-path re-cluster cache, and its
// re-cluster on liveness edges (recluster_live).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/haccs_selector.hpp"
#include "src/net/wire.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/privacy.hpp"

namespace haccs::core {
namespace {

data::SyntheticImageGenerator gen8() {
  data::SyntheticImageConfig cfg;
  cfg.height = 8;
  cfg.width = 8;
  cfg.noise_stddev = 0.3;
  return data::SyntheticImageGenerator(cfg);
}

data::FederatedDataset majority_fed(std::size_t clients, std::uint64_t seed) {
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 30;
  pcfg.max_samples = 60;
  pcfg.test_samples = 2;
  Rng rng(seed);
  return data::partition_majority_label(gen8(), pcfg, rng);
}

HaccsConfig private_config(stats::SummaryKind kind) {
  HaccsConfig cfg;
  cfg.summary = kind;
  // Small ε: Laplace noise drives many bins below zero, which clamp to 0.
  cfg.privacy.epsilon = 0.5;
  return cfg;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Eq. 3 written out the way the repository computed it before rows were
/// prepared: normalize the clamped counts, subtract the square roots.
double textbook_hellinger(std::span<const double> p,
                          std::span<const double> q) {
  double pt = 0.0, qt = 0.0;
  for (double v : p) pt += std::max(v, 0.0);
  for (double v : q) qt += std::max(v, 0.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = pt > 0.0 ? std::max(p[i], 0.0) / pt : 0.0;
    const double qi = qt > 0.0 ? std::max(q[i], 0.0) / qt : 0.0;
    const double d = std::sqrt(pi) - std::sqrt(qi);
    acc += d * d;
  }
  return std::sqrt(acc / 2.0);
}

/// The mass-weighted average of textbook_hellinger over paired histograms,
/// as the repository computed it before rows were prepared.
double textbook_weighted_hellinger(const std::vector<stats::Histogram>& a,
                                   const std::vector<stats::Histogram>& b) {
  double grand_total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    grand_total += std::max(a[i].total(), 0.0) + std::max(b[i].total(), 0.0);
  }
  if (grand_total <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ta = std::max(a[i].total(), 0.0);
    const double tb = std::max(b[i].total(), 0.0);
    const double weight = (ta + tb) / grand_total;
    if (weight <= 0.0) continue;
    acc += weight * (ta > 0.0 && tb > 0.0
                         ? textbook_hellinger(a[i].counts(), b[i].counts())
                         : 1.0);
  }
  return acc;
}

void expect_matrix_matches_pairs(const std::vector<ClientSummary>& summaries,
                                 stats::DistanceKind kind,
                                 const std::string& what) {
  const auto matrix = summary_distances(summaries, kind);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    EXPECT_EQ(matrix.at(i, i), 0.0) << what;
    for (std::size_t j = i + 1; j < summaries.size(); ++j) {
      const double pair = ClientSummary::distance(summaries[i], summaries[j],
                                                  kind);
      ASSERT_EQ(matrix.at(i, j), pair) << what << " cell " << i << "," << j;
      ASSERT_EQ(matrix.at(j, i), pair) << what << " cell " << j << "," << i;
    }
  }
}

TEST(PreparedHellinger, MatchesTextbookEq3BitForBit) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t bins = 1 + rng.uniform_index(20);
    std::vector<double> p(bins), q(bins);
    for (std::size_t i = 0; i < bins; ++i) {
      // Zeros, negatives (unclamped noise) and ordinary counts.
      const auto pick = rng.uniform_index(4);
      p[i] = pick == 0 ? 0.0 : pick == 1 ? -rng.uniform() : 10 * rng.uniform();
      q[i] = rng.uniform_index(3) == 0 ? 0.0 : 10 * rng.uniform();
    }
    if (trial % 10 == 0) std::fill(p.begin(), p.end(), 0.0);
    ASSERT_EQ(stats::hellinger_distance(p, q), textbook_hellinger(p, q));
    const stats::HellingerRows rp(p), rq(q);
    ASSERT_EQ(stats::prepared_hellinger(rp.row(0), rq.row(0)),
              textbook_hellinger(p, q));
  }
}

TEST(PreparedHellinger, WeightedMatchesTextbookBitForBit) {
  const auto summaries = compute_summaries(
      majority_fed(12, 45), private_config(stats::SummaryKind::Conditional));
  for (const auto& a : summaries) {
    for (const auto& b : summaries) {
      ASSERT_EQ(stats::weighted_hellinger_distance(a.conditional.per_label,
                                                   b.conditional.per_label),
                textbook_weighted_hellinger(a.conditional.per_label,
                                            b.conditional.per_label));
    }
  }
}

TEST(PreparedHellinger, ResponseMatrixEqualsPerPairUnderEveryKind) {
  auto summaries = compute_summaries(
      majority_fed(24, 43), private_config(stats::SummaryKind::Response));
  // An all-zero client and a one-label client.
  ClientSummary zero;
  zero.response = stats::ResponseSummary(10);
  summaries.push_back(zero);
  ClientSummary one_label = zero;
  one_label.response.label_counts.add_count(3, 17.0);
  summaries.push_back(one_label);
  bool clamped_zero = false;
  for (const auto& s : summaries) {
    for (double c : s.response.label_counts.counts()) {
      clamped_zero = clamped_zero || c == 0.0;
    }
  }
  ASSERT_TRUE(clamped_zero);
  for (const auto kind :
       {stats::DistanceKind::Hellinger, stats::DistanceKind::TotalVariation,
        stats::DistanceKind::SymmetricKl, stats::DistanceKind::JensenShannon,
        stats::DistanceKind::Cosine}) {
    expect_matrix_matches_pairs(summaries, kind, stats::to_string(kind));
  }
}

TEST(PreparedHellinger, ConditionalMatrixEqualsPerPair) {
  const auto cfg = private_config(stats::SummaryKind::Conditional);
  auto summaries = compute_summaries(majority_fed(24, 47), cfg);
  // An all-zero client (every label absent) and a client holding one label
  // only, so most labels are present on exactly one side of its pairs.
  ClientSummary zero;
  zero.kind = stats::SummaryKind::Conditional;
  for (std::size_t c = 0; c < 10; ++c) {
    zero.conditional.per_label.emplace_back(cfg.conditional.bins,
                                            cfg.conditional.lo,
                                            cfg.conditional.hi);
  }
  summaries.push_back(zero);
  ClientSummary one_label = zero;
  one_label.conditional.per_label[4].observe(0.5, 9.0);
  one_label.conditional.per_label[4].observe(-1.0, 2.0);
  summaries.push_back(one_label);
  expect_matrix_matches_pairs(summaries, stats::DistanceKind::Hellinger,
                              "P(X|y)");
}

TEST(PreparedHellinger, QuantileMatrixEqualsPerPair) {
  const auto summaries = compute_summaries(
      majority_fed(16, 53), private_config(stats::SummaryKind::Quantile));
  expect_matrix_matches_pairs(summaries, stats::DistanceKind::Hellinger,
                              "Q(X|y)");
}

TEST(PreparedHellinger, ParallelSummariesEqualSerialReference) {
  const auto fed = majority_fed(30, 59);
  for (const auto kind :
       {stats::SummaryKind::Response, stats::SummaryKind::Conditional,
        stats::SummaryKind::Quantile}) {
    const auto cfg = private_config(kind);
    const auto summaries = compute_summaries(fed, cfg);
    ASSERT_EQ(summaries.size(), fed.num_clients());
    Rng noise_root(cfg.privacy_seed);
    for (std::size_t i = 0; i < fed.num_clients(); ++i) {
      Rng noise = noise_root.fork();
      const auto& train = fed.clients[i].train;
      const auto& got = summaries[i];
      ASSERT_EQ(got.kind, kind);
      if (kind == stats::SummaryKind::Response) {
        const auto want = stats::privatize(stats::summarize_response(train),
                                           cfg.privacy, noise);
        EXPECT_TRUE(same_bits(got.response.label_counts.counts(),
                              want.label_counts.counts()))
            << "client " << i;
      } else if (kind == stats::SummaryKind::Conditional) {
        const auto want = stats::privatize(
            stats::summarize_conditional(train, cfg.conditional), cfg.privacy,
            noise);
        ASSERT_EQ(got.conditional.per_label.size(), want.per_label.size());
        for (std::size_t c = 0; c < want.per_label.size(); ++c) {
          EXPECT_TRUE(same_bits(got.conditional.per_label[c].counts(),
                                want.per_label[c].counts()))
              << "client " << i << " label " << c;
        }
      } else {
        const auto want = stats::privatize(
            stats::summarize_quantiles(train, cfg.quantile), cfg.quantile,
            cfg.privacy, noise);
        EXPECT_TRUE(same_bits(got.quantile.mass, want.mass));
        ASSERT_EQ(got.quantile.per_label.size(), want.per_label.size());
        for (std::size_t c = 0; c < want.per_label.size(); ++c) {
          EXPECT_TRUE(same_bits(got.quantile.per_label[c], want.per_label[c]))
              << "client " << i << " label " << c;
        }
      }
    }
  }
}

// ---- HaccsSelector exact-path re-cluster cache ----

HaccsConfig conditional_config() {
  HaccsConfig cfg;
  cfg.summary = stats::SummaryKind::Conditional;
  return cfg;
}

/// What a freshly built selector would hold for `labels`.
std::vector<int> remapped(std::vector<int> labels, const HaccsConfig& cfg) {
  return HaccsSelector(std::move(labels), cfg).cluster_of();
}

std::uint64_t reused_total() {
  return obs::Registry::global().counter("recluster_reused_total").value();
}

class ReclusterCache : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { obs::set_metrics_enabled(false); }
};

TEST_F(ReclusterCache, UnchangedDataReusesLabelsAndSkipsOptics) {
  const auto fed = majority_fed(40, 61);
  const auto cfg = conditional_config();
  HaccsSelector selector(fed, cfg);
  const auto before = selector.cluster_of();

  obs::TraceBuffer::global().clear();
  obs::set_trace_enabled(true);
  const auto reused = reused_total();
  selector.recluster(fed);
  obs::set_trace_enabled(false);

  EXPECT_EQ(selector.cluster_of(), before);
  EXPECT_EQ(reused_total(), reused + 1);
  bool saw_recluster = false;
  for (const auto& e : obs::TraceBuffer::global().snapshot()) {
    EXPECT_STRNE(e.name, "optics");
    EXPECT_STRNE(e.name, "distance_matrix");
    if (std::strcmp(e.name, "recluster") == 0) {
      saw_recluster = true;
      ASSERT_NE(e.arg_name, nullptr);
      EXPECT_STREQ(e.arg_name, "changed_clients");
      EXPECT_EQ(e.arg_value, 0);
    }
  }
  EXPECT_TRUE(saw_recluster);
  EXPECT_NE(obs::TraceBuffer::global().to_chrome_json().find(
                "\"changed_clients\":0"),
            std::string::npos);
}

TEST_F(ReclusterCache, DriftedClientsRerunThePipeline) {
  auto fed = majority_fed(40, 67);
  const auto cfg = conditional_config();
  HaccsSelector selector(fed, cfg);
  Rng drift_rng(71);
  data::apply_label_drift(fed, gen8(), 0.1, drift_rng);

  const auto reused = reused_total();
  selector.recluster(fed);
  EXPECT_EQ(reused_total(), reused);
  EXPECT_EQ(selector.cluster_of(), remapped(cluster_clients(fed, cfg), cfg));
}

TEST_F(ReclusterCache, GrownDatasetTriggersFullRebuild) {
  const auto small = majority_fed(30, 73);
  auto grown = small;
  const auto extra = majority_fed(6, 79);
  for (const auto& client : extra.clients) grown.clients.push_back(client);
  const auto cfg = conditional_config();
  HaccsSelector selector(small, cfg);

  const auto reused = reused_total();
  selector.recluster(grown);
  EXPECT_EQ(reused_total(), reused);
  ASSERT_EQ(selector.cluster_of().size(), grown.num_clients());
  EXPECT_EQ(selector.cluster_of(), remapped(cluster_clients(grown, cfg), cfg));

  // And back: the cache now holds the grown population.
  selector.recluster(small);
  EXPECT_EQ(selector.cluster_of(), remapped(cluster_clients(small, cfg), cfg));
}

TEST_F(ReclusterCache, SetClustersThenReclusterRestoresPipelineLabels) {
  const auto fed = majority_fed(30, 83);
  const auto cfg = conditional_config();
  HaccsSelector selector(fed, cfg);
  const auto pipeline = selector.cluster_of();
  selector.set_clusters(std::vector<int>(fed.num_clients(), 0));
  ASSERT_EQ(selector.num_clusters(), 1u);
  selector.recluster(fed);
  EXPECT_EQ(selector.cluster_of(), pipeline);
}

TEST_F(ReclusterCache, LabelConstructedSelectorBuildsItsCacheOnFirstRecluster) {
  const auto fed = majority_fed(30, 89);
  const auto cfg = conditional_config();
  HaccsSelector selector(std::vector<int>(fed.num_clients(), 0), cfg);
  const auto reused = reused_total();
  selector.recluster(fed);
  EXPECT_EQ(reused_total(), reused);
  EXPECT_EQ(selector.cluster_of(), remapped(cluster_clients(fed, cfg), cfg));
  selector.recluster(fed);
  EXPECT_EQ(reused_total(), reused + 1);
}

TEST_F(ReclusterCache, StateBlobIsUnchangedAndRestoresToTheSameLabels) {
  const auto fed = majority_fed(30, 97);
  const auto cfg = conditional_config();
  HaccsSelector selector(fed, cfg);
  selector.report_failure(3, 0, fl::FailureKind::Crash);
  const auto blob = selector.save_state();

  // Version 1 layout: tag, version, penalties, replacement queue. The cache
  // adds nothing.
  net::WireWriter w;
  w.string("HACCS");
  w.u16(1);
  std::vector<double> penalty(fed.num_clients(), 1.0);
  penalty[3] = cfg.failure_penalty;
  w.f64_array(penalty);
  w.u64(1);
  w.u64(static_cast<std::uint64_t>(selector.cluster_of()[3]));
  EXPECT_EQ(blob, w.take());

  HaccsSelector restored(fed, cfg);
  restored.load_state(blob);
  EXPECT_EQ(restored.save_state(), blob);
  selector.recluster(fed);
  restored.recluster(fed);
  EXPECT_EQ(restored.cluster_of(), selector.cluster_of());
}

// ---------------------------------------------------------------------------
// ReclusterLive: liveness edges re-cluster through the same path as drift

/// Labels renumbered by first appearance: equal iff same partition.
std::vector<int> canonical(const std::vector<int>& labels) {
  std::vector<int> out(labels.size());
  std::vector<std::pair<int, int>> seen;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    auto it = std::find_if(seen.begin(), seen.end(),
                           [&](const auto& p) { return p.first == labels[i]; });
    if (it == seen.end()) {
      seen.emplace_back(labels[i], static_cast<int>(seen.size()));
      it = seen.end() - 1;
    }
    out[i] = it->second;
  }
  return out;
}

/// 400 P(y) clients on 4 members, member m hosting {c : c % 4 == m}: more
/// clients than the scale path's 256-client exact cutoff.
class ReclusterLive : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { obs::set_metrics_enabled(false); }

  std::vector<bool> without_member(std::size_t member) const {
    std::vector<bool> live(fed_.num_clients(), true);
    for (std::size_t c = member; c < live.size(); c += 4) live[c] = false;
    return live;
  }

  const data::FederatedDataset fed_ = majority_fed(400, 101);
  const HaccsConfig cfg_{};
  const std::vector<ClientSummary> summaries_ = compute_summaries(fed_, cfg_);
};

TEST_F(ReclusterLive, DepartedMemberLeavesTheExactClusteringOfTheSurvivors) {
  auto selector = HaccsSelector::from_summaries(summaries_, cfg_);
  const auto startup = selector.cluster_of();

  const auto live = without_member(1);
  ASSERT_TRUE(selector.recluster_live(live));
  std::vector<ClientSummary> survivors;
  std::vector<std::size_t> members;
  for (std::size_t c = 0; c < live.size(); ++c) {
    if (live[c]) {
      survivors.push_back(summaries_[c]);
      members.push_back(c);
    }
  }
  const auto survivor_labels = cluster_summaries(survivors, cfg_);
  std::vector<int> expected(live.size(), -1);  // departed: singletons
  for (std::size_t i = 0; i < members.size(); ++i) {
    expected[members[i]] = survivor_labels[i];
  }
  EXPECT_EQ(canonical(selector.cluster_of()),
            canonical(remapped(expected, cfg_)));

  // The member returns: the startup clustering of the same population.
  ASSERT_TRUE(selector.recluster_live(std::vector<bool>(live.size(), true)));
  EXPECT_EQ(selector.cluster_of(), startup);
}

TEST_F(ReclusterLive, EveryMemberDeadLeavesOnlySingletons) {
  auto selector = HaccsSelector::from_summaries(summaries_, cfg_);
  ASSERT_NO_THROW(
      selector.recluster_live(std::vector<bool>(fed_.num_clients(), false)));
  EXPECT_EQ(selector.num_clusters(), fed_.num_clients());
}

TEST_F(ReclusterLive, DriftReclusterKeepsDepartedClientsOut) {
  auto fed = fed_;
  HaccsSelector selector(fed, cfg_);
  const auto live = without_member(2);
  selector.recluster_live(live);
  Rng drift_rng(103);
  data::apply_label_drift(fed, gen8(), 0.1, drift_rng);
  selector.recluster(fed);

  // Still the survivors' clustering, now of the drifted summaries.
  const auto drifted = compute_summaries(fed, cfg_);
  std::vector<ClientSummary> survivors;
  for (std::size_t c = 0; c < live.size(); ++c) {
    if (live[c]) survivors.push_back(drifted[c]);
  }
  const auto survivor_labels = cluster_summaries(survivors, cfg_);
  std::vector<int> expected(live.size(), -1);
  for (std::size_t c = 0, i = 0; c < live.size(); ++c) {
    if (live[c]) expected[c] = survivor_labels[i++];
  }
  EXPECT_EQ(canonical(selector.cluster_of()),
            canonical(remapped(expected, cfg_)));
}

TEST_F(ReclusterLive, ScalePathMovesClientsThroughTheSelectorsClusterer) {
  HaccsConfig cfg = cfg_;
  cfg.scale.enabled = true;
  cfg.scale.shard_size = 128;
  auto selector = HaccsSelector::from_summaries(summaries_, cfg);
  ASSERT_NE(selector.incremental(), nullptr);
  EXPECT_EQ(selector.incremental()->size(), 400u);

  const auto live = without_member(3);
  ASSERT_TRUE(selector.recluster_live(live));
  EXPECT_EQ(selector.incremental()->size(), 300u);
  for (std::size_t c = 0; c < live.size(); ++c) {
    if (live[c]) continue;
    const auto cluster = static_cast<std::size_t>(selector.cluster_of()[c]);
    EXPECT_EQ(selector.clusters()[cluster].size(), 1u) << "client " << c;
  }

  ASSERT_TRUE(selector.recluster_live(std::vector<bool>(live.size(), true)));
  EXPECT_EQ(selector.incremental()->size(), 400u);
}

TEST_F(ReclusterLive, MaskMustCoverTheSummarizedPopulation) {
  auto selector = HaccsSelector::from_summaries(summaries_, cfg_);
  EXPECT_THROW(selector.recluster_live(std::vector<bool>(3, true)),
               std::invalid_argument);
  HaccsSelector from_labels(std::vector<int>(4, 0), cfg_);
  EXPECT_THROW(from_labels.recluster_live(std::vector<bool>(4, true)),
               std::invalid_argument);
}

}  // namespace
}  // namespace haccs::core
