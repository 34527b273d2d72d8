#include "src/fl/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/common/threadpool.hpp"
#include "src/nn/loss.hpp"

namespace haccs::fl {

namespace {

// Blocks per lane, at least: where the byte budget below does not already
// cut the rows finer, this keeps a block's gathered rows and activations
// small enough to stay in the core's L2 cache.
constexpr std::size_t kBlocksPerLane = 4;

// Byte budget for one block's gathered input (1 MiB: 1024 rows of 16x16
// floats); a block may exceed it by one chunk. The per-thread workspace
// and the activations it feeds scale with it.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

}  // namespace

BlockedEvaluator::BlockedEvaluator(std::vector<const data::Dataset*> sets)
    : BlockedEvaluator(std::move(sets), ThreadPool::global().size() + 1) {}

BlockedEvaluator::BlockedEvaluator(std::vector<const data::Dataset*> sets,
                                   std::size_t lanes)
    : sets_(std::move(sets)) {
  if (lanes == 0) throw std::invalid_argument("BlockedEvaluator: 0 lanes");
  std::size_t total_rows = 0;
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    const data::Dataset& set = *sets_[s];
    if (set.sample_shape() != sets_.front()->sample_shape()) {
      throw std::invalid_argument("BlockedEvaluator: sample shapes differ");
    }
    for (std::size_t first = 0; first < set.size(); first += kEvalChunk) {
      chunks_.push_back({s, first, std::min(kEvalChunk, set.size() - first)});
    }
    total_rows += set.size();
  }
  block_begin_.push_back(0);
  if (chunks_.empty()) return;
  // Several blocks per lane, more if the byte budget asks for it, and a
  // multiple of the lane count so parallel_for's static split is even.
  const std::size_t bytes =
      total_rows * sets_.front()->sample_size() * sizeof(float);
  std::size_t blocks = std::max(lanes * kBlocksPerLane,
                                (bytes + kBlockBytes - 1) / kBlockBytes);
  blocks = (blocks + lanes - 1) / lanes * lanes;
  // Chunk c goes to block (rows before c) * blocks / total_rows, so blocks
  // hold equal row counts to within one chunk.
  std::size_t rows_before = 0, block = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::size_t b = rows_before * blocks / total_rows;
    if (b != block) {
      block_begin_.push_back(c);
      block = b;
    }
    rows_before += chunks_[c].rows;
  }
  block_begin_.push_back(chunks_.size());
}

void BlockedEvaluator::run_batch(const nn::Sequential& model,
                                 std::span<const std::size_t> chunk_ids,
                                 std::span<ChunkScore> scores) const {
  // The per-thread workspace: the gathered batch and the buffer the layers
  // ping-pong with, both reused from batch to batch.
  thread_local Tensor x, spare;
  std::size_t rows = 0;
  for (std::size_t id : chunk_ids) rows += chunks_[id].rows;
  const auto& sample_shape = sets_.front()->sample_shape();
  std::vector<std::size_t> shape{rows};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  x.resize(shape);

  // Adjacent chunks of one set are adjacent rows: one memcpy per run.
  const std::size_t width = sets_.front()->sample_size();
  float* dst = x.raw();
  for (std::size_t i = 0; i < chunk_ids.size();) {
    const Chunk& run = chunks_[chunk_ids[i]];
    std::size_t run_rows = run.rows;
    for (++i; i < chunk_ids.size(); ++i) {
      const Chunk& next = chunks_[chunk_ids[i]];
      if (next.set != run.set || next.first != run.first + run_rows) break;
      run_rows += next.rows;
    }
    std::memcpy(dst, sets_[run.set]->features(run.first).data(),
                run_rows * width * sizeof(float));
    dst += run_rows * width;
  }

  model.infer(x, spare);
  HACCS_CHECK_MSG(x.rank() == 2 && x.extent(0) == rows,
                  "BlockedEvaluator: model must map rows to logit rows");
  const std::size_t classes = x.extent(1);
  const float* logits = x.raw();
  for (std::size_t id : chunk_ids) {
    const Chunk& chunk = chunks_[id];
    const auto labels = sets_[chunk.set]->labels();
    ChunkScore& score = scores[id];
    for (std::size_t r = 0; r < chunk.rows; ++r, logits += classes) {
      const nn::RowLoss row = nn::softmax_cross_entropy_row(
          {logits, classes}, labels[chunk.first + r]);
      score.loss_total += row.loss;
      if (row.correct) ++score.correct;
    }
  }
}

std::vector<EvalResult> BlockedEvaluator::evaluate(
    const nn::Sequential& model) const {
  std::vector<ChunkScore> scores(chunks_.size());
  const std::size_t min_rows = model.min_invariant_rows();
  parallel_for(0, blocks(), [&](std::size_t b) {
    // A chunk under min_rows would take the small-GEMM loops alone but the
    // blocked kernel inside a larger batch, so it runs by itself.
    std::vector<std::size_t> batch;
    batch.reserve(block_begin_[b + 1] - block_begin_[b]);
    for (std::size_t c = block_begin_[b]; c < block_begin_[b + 1]; ++c) {
      if (chunks_[c].rows < min_rows) {
        run_batch(model, {&c, 1}, scores);
      } else {
        batch.push_back(c);
      }
    }
    if (!batch.empty()) run_batch(model, batch, scores);
  });

  // Per set, in chunk order, each chunk's mean loss weighted back by its
  // row count: (sum / n) * n, as a per-set loop of chunk losses adds it.
  std::vector<EvalResult> results(sets_.size());
  std::size_t c = 0;
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (; c < chunks_.size() && chunks_[c].set == s; ++c) {
      const auto n = static_cast<double>(chunks_[c].rows);
      loss_sum += scores[c].loss_total / n * n;
      correct += scores[c].correct;
    }
    const std::size_t size = sets_[s]->size();
    if (size == 0) continue;
    results[s].samples = size;
    results[s].loss = loss_sum / static_cast<double>(size);
    results[s].accuracy =
        static_cast<double>(correct) / static_cast<double>(size);
  }
  return results;
}

double participation_gini(std::span<const std::size_t> selection_counts) {
  if (selection_counts.empty()) {
    throw std::invalid_argument("participation_gini: empty input");
  }
  std::vector<double> sorted(selection_counts.begin(), selection_counts.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  double total = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    weighted += (static_cast<double>(i) + 1.0) * sorted[i];
  }
  if (total <= 0.0) return 0.0;  // nobody ever selected: call it even
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

double accuracy_spread(std::span<const double> per_client_accuracy) {
  if (per_client_accuracy.empty()) {
    throw std::invalid_argument("accuracy_spread: empty input");
  }
  double mean = 0.0;
  for (double a : per_client_accuracy) mean += a;
  mean /= static_cast<double>(per_client_accuracy.size());
  double var = 0.0;
  for (double a : per_client_accuracy) var += (a - mean) * (a - mean);
  var /= static_cast<double>(per_client_accuracy.size());
  return std::sqrt(var);
}

}  // namespace haccs::fl
