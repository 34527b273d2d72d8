#include "src/scale/scale.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/common/rng.hpp"
#include "src/common/threadpool.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/stats/sketch.hpp"

namespace haccs::scale {

namespace {

// ANN candidates: points sharing a bucket in any of kLshTables sign-random-
// projection hash tables of kLshBits hyperplane bits; buckets of at most
// kMaxBucket points contribute all their pairs.
constexpr std::size_t kLshTables = 6, kLshBits = 10, kMaxBucket = 64;

obs::Counter& candidate_pairs_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("scale_candidate_pairs_total");
  return c;
}

obs::Counter& exact_distances_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("scale_exact_distances_total");
  return c;
}

}  // namespace

SketchMatrix::SketchMatrix(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("SketchMatrix: dim == 0");
}

std::size_t SketchMatrix::append(std::span<const float> values) {
  if (values.size() != dim_) {
    throw std::invalid_argument("SketchMatrix::append: wrong row width");
  }
  const std::size_t id = rows();
  data_.insert(data_.end(), values.begin(), values.end());
  return id;
}

void SketchMatrix::assign_row(std::size_t i, std::span<const float> values) {
  if (i >= rows()) throw std::out_of_range("SketchMatrix::assign_row");
  if (values.size() != dim_) {
    throw std::invalid_argument("SketchMatrix::assign_row: wrong row width");
  }
  std::copy(values.begin(), values.end(), data_.begin() + i * dim_);
}

double sketch_distance(const SketchMatrix& sketches, std::size_t i,
                       std::size_t j) {
  return stats::hellinger_from_embeddings(sketches.row(i), sketches.row(j));
}

void ScaleStats::accumulate(const ScaleStats& other) {
  candidate_pairs += other.candidate_pairs;
  exact_distances += other.exact_distances;
  shards += other.shards;
  merge_inputs += other.merge_inputs;
}

clustering::SparseNeighborGraph build_candidate_graph(
    const SketchMatrix& sketches, std::span<const std::size_t> members,
    const ExactDistanceFn& exact, const ScaleConfig& config,
    ScaleStats* stats) {
  const std::size_t m = members.size();
  const std::size_t dim = sketches.dim();

  // Candidate generation: per table, hash every member to a sign-bit key
  // over kLshBits random hyperplanes, sort by key, and pair within buckets.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(m);
  std::vector<double> planes(kLshBits * dim);
  for (std::size_t t = 0; t < kLshTables; ++t) {
    Rng rng(SplitMix64(config.seed ^ ((t + 1) * 0x9e3779b97f4a7c15ULL)).next());
    for (double& p : planes) p = rng.normal();
    parallel_for(0, m, [&](std::size_t i) {
      const auto row = sketches.row(members[i]);
      std::uint64_t key = 0;
      for (std::size_t b = 0; b < kLshBits; ++b) {
        const double* plane = planes.data() + b * dim;
        double dot = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
          dot += plane[d] * static_cast<double>(row[d]);
        }
        if (dot > 0.0) key |= (std::uint64_t{1} << b);
      }
      keyed[i] = {key, i};
    });
    std::sort(keyed.begin(), keyed.end());
    std::size_t lo = 0;
    while (lo < m) {
      std::size_t hi = lo + 1;
      while (hi < m && keyed[hi].first == keyed[lo].first) ++hi;
      const std::size_t bucket = hi - lo;
      if (bucket <= kMaxBucket) {
        for (std::size_t a = lo; a < hi; ++a) {
          for (std::size_t b = a + 1; b < hi; ++b) {
            pairs.emplace_back(std::min(keyed[a].second, keyed[b].second),
                               std::max(keyed[a].second, keyed[b].second));
          }
        }
      } else {
        // Oversized bucket (sketches collapsed onto one key): connect each
        // point to a bounded window of successors instead of all pairs.
        const std::size_t window = std::max<std::size_t>(1, config.bucket_window);
        for (std::size_t a = lo; a < hi; ++a) {
          for (std::size_t b = a + 1; b < std::min(hi, a + 1 + window); ++b) {
            pairs.emplace_back(std::min(keyed[a].second, keyed[b].second),
                               std::max(keyed[a].second, keyed[b].second));
          }
        }
      }
      lo = hi;
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // Only the surviving candidates pay for an exact Hellinger evaluation.
  std::vector<double> dists(pairs.size());
  parallel_for(0, pairs.size(), [&](std::size_t p) {
    dists[p] = exact(members[pairs[p].first], members[pairs[p].second]);
  });

  clustering::SparseNeighborGraph graph(m);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    graph.add_edge(pairs[p].first, pairs[p].second, dists[p]);
  }
  graph.finalize();
  std::vector<std::size_t> owned(members.begin(), members.end());
  graph.set_estimator(
      [&sketches, owned = std::move(owned)](std::size_t i, std::size_t j) {
        return sketch_distance(sketches, owned[i], owned[j]);
      });

  candidate_pairs_counter().inc(pairs.size());
  exact_distances_counter().inc(pairs.size());
  if (stats != nullptr) {
    stats->candidate_pairs += pairs.size();
    stats->exact_distances += pairs.size();
  }
  return graph;
}

std::vector<int> cluster_shard(const SketchMatrix& sketches,
                               std::span<const std::size_t> members,
                               const ExactDistanceFn& exact,
                               const ClusterFn& cluster,
                               const ScaleConfig& config, ScaleStats* stats) {
  obs::Span span("shard_cluster", "clustering");
  const std::size_t m = members.size();
  if (m == 0) return {};
  if (m <= config.exact_cutoff) {
    auto matrix = clustering::DistanceMatrix::build(
        m, [&](std::size_t i, std::size_t j) {
          return exact(members[i], members[j]);
        });
    const std::size_t evals = m * (m - 1) / 2;
    exact_distances_counter().inc(evals);
    if (stats != nullptr) stats->exact_distances += evals;
    return cluster(clustering::DenseNeighborIndex(matrix));
  }
  auto graph = build_candidate_graph(sketches, members, exact, config, stats);
  return cluster(graph);
}

std::vector<int> merge_shards(const SketchMatrix& sketches,
                              std::span<const ShardClustering> shards,
                              const ClusterFn& cluster,
                              const ScaleConfig& config, ScaleStats* stats) {
  obs::Span span("shard_merge", "clustering");
  std::vector<int> global(sketches.rows(), -1);

  std::vector<std::size_t> populated;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].members.size() != shards[s].labels.size()) {
      throw std::invalid_argument("merge_shards: members/labels misaligned");
    }
    if (!shards[s].members.empty()) populated.push_back(s);
  }
  if (populated.empty()) return global;

  // Identity merge: one populated shard's local labels are already global.
  if (populated.size() == 1) {
    const auto& shard = shards[populated.front()];
    for (std::size_t i = 0; i < shard.members.size(); ++i) {
      global[shard.members[i]] = shard.labels[i];
    }
    return global;
  }

  // One representative per (shard, local cluster): the sketch centroid of
  // its members. rep_row[s][l] is the representative's row id.
  SketchMatrix reps(sketches.dim());
  std::vector<std::vector<int>> rep_row(shards.size());
  std::size_t total_members = 0;
  std::vector<double> sum(sketches.dim());
  std::vector<float> centroid(sketches.dim());
  for (std::size_t s : populated) {
    const auto& shard = shards[s];
    total_members += shard.members.size();
    int local_clusters = 0;
    for (int label : shard.labels) {
      local_clusters = std::max(local_clusters, label + 1);
    }
    rep_row[s].assign(static_cast<std::size_t>(local_clusters), -1);
    for (int c = 0; c < local_clusters; ++c) {
      std::fill(sum.begin(), sum.end(), 0.0);
      std::size_t count = 0;
      for (std::size_t i = 0; i < shard.members.size(); ++i) {
        if (shard.labels[i] != c) continue;
        const auto row = sketches.row(shard.members[i]);
        for (std::size_t d = 0; d < sum.size(); ++d) sum[d] += row[d];
        ++count;
      }
      if (count == 0) continue;  // label gap: no members carry this id
      for (std::size_t d = 0; d < sum.size(); ++d) {
        centroid[d] = static_cast<float>(sum[d] / static_cast<double>(count));
      }
      rep_row[s][static_cast<std::size_t>(c)] =
          static_cast<int>(reps.append(centroid));
    }
  }
  if (stats != nullptr) stats->merge_inputs += reps.rows();
  if (reps.rows() == 0) return global;

  // Cluster the representatives in sketch space. Recursion through
  // cluster_sharded handles a representative set too large for a dense
  // matrix; it terminates because density clustering with min_pts >= 2
  // yields at most members/2 clusters per level (guarded explicitly for
  // pathological ClusterFns that don't shrink).
  std::vector<int> rep_labels;
  if (reps.rows() == 1) {
    rep_labels.assign(1, 0);
  } else if (reps.rows() > config.shard_size && reps.rows() < total_members) {
    rep_labels = cluster_sharded(
        reps,
        [&reps](std::size_t i, std::size_t j) {
          return sketch_distance(reps, i, j);
        },
        cluster, config, stats);
  } else {
    auto matrix = clustering::DistanceMatrix::build(
        reps.rows(), [&reps](std::size_t i, std::size_t j) {
          return sketch_distance(reps, i, j);
        });
    rep_labels = cluster(clustering::DenseNeighborIndex(matrix));
  }

  // A representative the merge calls noise keeps its own global cluster.
  int next_label = 0;
  for (int label : rep_labels) next_label = std::max(next_label, label + 1);
  for (int& label : rep_labels) {
    if (label < 0) label = next_label++;
  }

  for (std::size_t s : populated) {
    const auto& shard = shards[s];
    for (std::size_t i = 0; i < shard.members.size(); ++i) {
      const int local = shard.labels[i];
      if (local < 0) continue;  // shard-local noise stays global noise
      const int rep = rep_row[s][static_cast<std::size_t>(local)];
      global[shard.members[i]] = rep_labels[static_cast<std::size_t>(rep)];
    }
  }
  return global;
}

std::vector<int> cluster_sharded(const SketchMatrix& sketches,
                                 const ExactDistanceFn& exact,
                                 const ClusterFn& cluster,
                                 const ScaleConfig& config,
                                 ScaleStats* stats, ThreadPool* pool) {
  const std::size_t n = sketches.rows();
  if (n == 0) return {};
  const std::size_t shard_size = std::max<std::size_t>(1, config.shard_size);
  const std::size_t num_shards = (n + shard_size - 1) / shard_size;

  std::vector<ShardClustering> shards(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t lo = s * shard_size;
    const std::size_t hi = std::min(n, lo + shard_size);
    shards[s].members.resize(hi - lo);
    std::iota(shards[s].members.begin(), shards[s].members.end(), lo);
  }

  // Shards are independent; per-shard stats avoid racing on one struct.
  // Nested parallelism inside cluster_shard (DistanceMatrix::build,
  // candidate hashing) runs inline on pool workers.
  std::vector<ScaleStats> per_shard(num_shards);
  const auto shard_task = [&](std::size_t s) {
    shards[s].labels =
        cluster_shard(sketches, shards[s].members, exact, cluster, config,
                      stats != nullptr ? &per_shard[s] : nullptr);
  };
  if (pool != nullptr) {
    parallel_for(*pool, 0, num_shards, shard_task);
  } else {
    parallel_for(0, num_shards, shard_task);
  }
  if (stats != nullptr) {
    stats->shards += num_shards;
    for (const auto& ps : per_shard) stats->accumulate(ps);
  }
  return merge_shards(sketches, shards, cluster, config, stats);
}

}  // namespace haccs::scale
