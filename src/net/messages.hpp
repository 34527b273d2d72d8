// Payload codecs for the FL protocol messages (DESIGN.md §5f).
//
// This layer knows wire shapes, not FL semantics: UpdateKind mirrors
// fl::CompressionKind but src/net stays dependency-free of src/fl — the
// bridge (fl/protocol.hpp) converts between the two. Every decode_* throws
// WireError on malformed payloads (truncation, absurd counts, trailing
// bytes), which transports surface as a Corrupt verdict.
//
// Update tensor bodies are sized exactly as fl::compressed_wire_bytes prices
// them — Dense 4n, TopK k*(4+4), Int8 n+8 — so the latency model's priced
// bytes ARE the bytes on the wire (asserted by update_body_bytes and pinned
// in tests/net_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/frame.hpp"
#include "src/obs/trace.hpp"

namespace haccs::net {

// ---------------------------------------------------------------------------
// Client update payloads

/// Wire form of one model-update tensor. Mirrors fl::CompressionKind; values
/// are wire-stable.
enum class UpdateKind : std::uint8_t {
  Dense = 0,      ///< float32 per coordinate
  SparseTopK = 1, ///< (u32 index, f32 value) per kept coordinate
  Int8 = 2,       ///< u8 code per coordinate + lo/step dequant scalars
};

struct UpdatePayload {
  UpdateKind kind = UpdateKind::Dense;
  std::uint64_t size = 0;  ///< dense length n of the update
  std::vector<float> dense;            ///< Dense: n values
  std::vector<std::uint32_t> indices;  ///< SparseTopK: kept coordinates
  std::vector<float> values;           ///< SparseTopK: kept values
  std::vector<std::uint8_t> codes;     ///< Int8: n quantization codes
  float lo = 0.0f;    ///< Int8 dequantization offset
  float step = 0.0f;  ///< Int8 dequantization step

  /// Dense reconstruction (what the server applies). SparseTopK scatters
  /// into zeros; Int8 computes lo + code * step — the identical arithmetic
  /// the compressor used, so reconstruction is bit-exact with the sender's
  /// own dense view.
  std::vector<float> to_dense() const;
};

/// Bytes of the tensor body alone (kind/size tags and message metadata
/// excluded). This must equal fl::compressed_wire_bytes for the same update
/// — the consistency contract between the latency model and the codec.
std::size_t update_body_bytes(const UpdatePayload& payload);

// ---------------------------------------------------------------------------
// Protocol messages

/// worker -> server, once per connection: who is calling and how many of the
/// federation's clients it hosts.
struct HelloMsg {
  std::uint32_t worker_id = 0;
  std::uint32_t num_clients = 0;
};

/// The local-training recipe of a round: what every TrainJob of the round
/// carries besides its client's own fields (fl::LocalWorkConfig's wire
/// form), and what a SubtreeRound carries once.
struct WorkRecipe {
  std::uint8_t algorithm = 0;  ///< fl::LocalAlgorithm
  double fedprox_mu = 0.0;
  std::uint64_t local_epochs = 1;
  std::uint64_t batch_size = 32;
  double learning_rate = 0.01;
  double momentum = 0.0;
  double weight_decay = 0.0;
  std::uint8_t compression_kind = 0;  ///< fl::CompressionKind
  double topk_fraction = 0.1;
  std::uint8_t error_feedback = 1;
};

/// server -> worker: everything one client needs to run its local round.
/// Ships the full training recipe so a worker needs only its data shard and
/// the model factory; `rng_seed` is the engine's forked per-client stream,
/// which is what keeps a remote round bit-identical to the in-process one.
struct TrainJobMsg {
  std::uint64_t epoch = 0;
  std::uint32_t client_id = 0;
  std::uint64_t rng_seed = 0;
  double work_fraction = 1.0;
  WorkRecipe recipe;
  std::vector<float> params;  ///< global parameters (downlink payload)
  /// Optional trace-context trailer (DESIGN.md §5i): encoded only when
  /// valid(), so an untraced run's frames are byte-identical to pre-trace
  /// builds. Trace bytes are deliberately excluded from the latency model's
  /// priced overhead constants.
  obs::TraceContext trace;
};

/// worker -> server: the trained update plus local-round statistics.
///
/// Payload semantics by kind: Dense frames carry the UPDATED PARAMETERS
/// themselves (FedAvg's classic uplink — shipping the delta and re-adding
/// the global would not be bit-exact in float arithmetic); SparseTopK and
/// Int8 frames carry the compressed DELTA, which the server reconstructs as
/// global + to_dense() — the identical arithmetic the in-process path uses.
struct ClientUpdateMsg {
  std::uint64_t epoch = 0;
  std::uint32_t client_id = 0;
  double average_loss = 0.0;
  double final_loss = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t sample_count = 0;
  UpdatePayload update;
  /// Optional trailer: the TrainJob's context echoed back for correlation.
  obs::TraceContext trace;
};

/// server -> worker after a global evaluation.
struct EvalReportMsg {
  std::uint64_t epoch = 0;
  double accuracy = 0.0;
  double loss = 0.0;
  /// Optional trailer; a valid context also tells the worker the server is
  /// tracing, prompting a final TraceShard before shutdown.
  obs::TraceContext trace;
};

/// worker -> server: one client's distribution summary (paper §IV-A uplink).
/// `tables` is generic — one row for a P(y) histogram, one row per label for
/// P(X|y) histograms or quantile sketches; stats/summary_codec.hpp maps the
/// concrete summary types onto it.
struct SummaryMsg {
  std::uint32_t client_id = 0;
  std::uint8_t kind = 0;  ///< stats::SummaryKind
  double lo = 0.0, hi = 0.0;
  std::vector<std::vector<double>> tables;
  std::vector<double> mass;
};

/// worker -> server: the worker's buffered spans for committed rounds
/// (DESIGN.md §5i), shipped at the first job of a new round and again on
/// shutdown. `send_ns` is the sender's now_ns() at ship time — the server
/// subtracts it from its own receive-time clock to place the shard on the
/// merged timeline.
struct TraceShardMsg {
  std::uint32_t worker_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t send_ns = 0;
  std::vector<obs::PortableTraceEvent> events;
};

// ---------------------------------------------------------------------------
// Hierarchical aggregation messages (DESIGN.md §5j)

/// aggregator -> root, once per connection: which contiguous worker range
/// this mid-tier node fronts. Followed by the subtree's relayed Summary
/// frames, exactly like a worker's Hello is followed by its summaries.
struct TopologyHelloMsg {
  std::uint32_t agg_id = 0;
  std::uint32_t num_aggs = 0;
  std::uint32_t worker_begin = 0;  ///< first worker id in the subtree
  std::uint32_t worker_end = 0;    ///< one past the last worker id
  std::uint32_t num_clients = 0;   ///< clients hosted across the subtree
};

/// Per-client training stats forwarded upstream alongside the partial sum,
/// so the root's engine can do its normal per-slot bookkeeping (losses,
/// breakers, selector reports) without seeing the raw updates.
struct SubtreeClientStat {
  std::uint32_t client_id = 0;
  std::uint8_t delivered = 0;  ///< 1 = folded into the partial sum
  std::uint8_t failure = 0;    ///< fl::FailureKind when delivered == 0
  double average_loss = 0.0;
  double final_loss = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t sample_count = 0;  ///< the FedAvg weight
};

/// aggregator -> root: the subtree's whole round, one frame per round.
/// `sum` is the subtree's weighted partial sum (Σ w_i · updated_i in f64,
/// folded in slot order), empty when nothing was folded; `weight` is
/// Σ sample_count over the folded clients — integers, so the sum is exact
/// in f64 and the root's total weight is grouping-independent.
struct SubtreeUpdateMsg {
  std::uint64_t epoch = 0;
  std::uint32_t agg_id = 0;
  double weight = 0.0;
  std::vector<double> sum;
  std::vector<SubtreeClientStat> stats;
};

/// One client's share of a SubtreeRound: the TrainJob fields that differ
/// from client to client.
struct SubtreeJob {
  std::uint32_t client_id = 0;
  std::uint64_t rng_seed = 0;
  double work_fraction = 1.0;
};

/// root -> aggregator: the subtree's whole round, one frame per round. The
/// global parameters and the recipe cross the link once; `jobs` are the
/// subtree's clients in slot order, which is the order the aggregator folds
/// them in. `max_update_norm` is the root's validation bound (0 = none), so
/// the subtree's fold rejects exactly what the root's would.
struct SubtreeRoundMsg {
  std::uint64_t epoch = 0;
  double max_update_norm = 0.0;
  WorkRecipe recipe;
  std::vector<float> params;
  std::vector<SubtreeJob> jobs;
  /// Optional trace-context trailer, as on TrainJobMsg.
  obs::TraceContext trace;
};

// Heartbeat and Shutdown carry no payload: an empty frame of their type.

Frame encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(const Frame& frame);

Frame encode_train_job(const TrainJobMsg& msg);
TrainJobMsg decode_train_job(const Frame& frame);

Frame encode_client_update(const ClientUpdateMsg& msg);
ClientUpdateMsg decode_client_update(const Frame& frame);

Frame encode_eval_report(const EvalReportMsg& msg);
EvalReportMsg decode_eval_report(const Frame& frame);

Frame encode_summary(const SummaryMsg& msg);
SummaryMsg decode_summary(const Frame& frame);

Frame encode_trace_shard(const TraceShardMsg& msg);
TraceShardMsg decode_trace_shard(const Frame& frame);

Frame encode_topology_hello(const TopologyHelloMsg& msg);
TopologyHelloMsg decode_topology_hello(const Frame& frame);

Frame encode_subtree_update(const SubtreeUpdateMsg& msg);
SubtreeUpdateMsg decode_subtree_update(const Frame& frame);

Frame encode_subtree_round(const SubtreeRoundMsg& msg);
/// Also refuses a non-finite max_update_norm.
SubtreeRoundMsg decode_subtree_round(const Frame& frame);

Frame encode_heartbeat();
Frame encode_shutdown();

/// Fixed per-message wire overhead (frame header + metadata, excluding the
/// tensor body) — the constants fl/protocol.hpp uses to price whole frames
/// so RoundRecord byte accounting matches what transports actually move.
std::size_t train_job_overhead_bytes();
std::size_t client_update_overhead_bytes();

}  // namespace haccs::net
