// Population-wide evaluation in row blocks, and fairness metrics.
//
// HACCS scores a round by "the average test accuracy on all devices"
// (paper §V), so every evaluation runs the model over every client's test
// set. BlockedEvaluator does that as a few large batches instead of one
// small inference per client; participation_gini and accuracy_spread read
// the resulting per-client numbers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/fl/client.hpp"
#include "src/nn/model.hpp"

namespace haccs::fl {

/// Evaluation batch size: a test set is scored in chunks of this many rows
/// (the last may be shorter), each chunk's mean loss weighted back by its
/// row count, as a per-set loop of 128-row inferences would.
inline constexpr std::size_t kEvalChunk = 128;

/// Scores one model over many test sets at once (DESIGN.md "Evaluation
/// path"). At construction every set is cut into kEvalChunk-row chunks and
/// the chunks are grouped, in set order, into blocks of about equal rows:
/// several per lane for `lanes` parallel lanes, more if a block would
/// gather over a fixed byte budget of input. An evaluation runs one
/// parallel_for over the blocks: each block copies its rows into a
/// per-thread workspace, one memcpy per set, and runs the model's in-place
/// inference over them as one batch. Rows never mix in inference, so every
/// chunk scores as it would alone, except that a chunk too small for the
/// blocked GEMM (Sequential::min_invariant_rows) runs as a batch by itself,
/// as it did alone. Results therefore do not depend on the block size or
/// the thread count. The evaluator keeps pointers to the sets, not a copy.
class BlockedEvaluator {
 public:
  /// Blocks sized for the global pool's threads plus the caller.
  explicit BlockedEvaluator(std::vector<const data::Dataset*> sets);
  BlockedEvaluator(std::vector<const data::Dataset*> sets, std::size_t lanes);

  /// One result per set, in set order; zeros for an empty set. Each equals
  /// the per-set loop's bit for bit.
  std::vector<EvalResult> evaluate(const nn::Sequential& model) const;

  std::size_t blocks() const { return block_begin_.size() - 1; }

 private:
  struct Chunk {
    std::size_t set;
    std::size_t first;  ///< first row in the set
    std::size_t rows;
  };
  struct ChunkScore {
    double loss_total = 0.0;  ///< sum of the chunk's per-row loss terms
    std::size_t correct = 0;
  };

  /// Gathers the chunks `chunk_ids` into one batch, infers it and scores
  /// each chunk into scores[id].
  void run_batch(const nn::Sequential& model,
                 std::span<const std::size_t> chunk_ids,
                 std::span<ChunkScore> scores) const;

  std::vector<const data::Dataset*> sets_;
  std::vector<Chunk> chunks_;  ///< set order, then row order
  /// Block b holds chunks [block_begin_[b], block_begin_[b + 1]).
  std::vector<std::size_t> block_begin_;
};

/// Gini coefficient of per-client participation counts in [0, 1]:
/// 0 = perfectly even participation, ->1 = all work on one device. The
/// scheduling-bias audit metric behind the paper's Table III discussion.
double participation_gini(std::span<const std::size_t> selection_counts);

/// Population standard deviation of per-client accuracies — the fairness
/// spread behind Fig. 11's fastest-vs-slowest gaps.
double accuracy_spread(std::span<const double> per_client_accuracy);

}  // namespace haccs::fl
