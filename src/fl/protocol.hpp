// Bridge between the FL layer's types and the net wire format.
//
// src/net knows byte shapes; src/fl knows federated semantics. This header
// is where they meet: CompressedUpdate -> UpdatePayload, the TrainJob
// downlink (make_train_job, which the flat root and every mid tier fan out
// with, and read_train_job, its inverse on the worker), the recipe a tree
// root ships once per SubtreeRound, and the frame-size pricing the
// engine uses for per-round uplink/downlink accounting. The pricing
// functions return the exact byte counts the codecs emit (pinned by
// NetCodec.* tests), so RoundRecord's bytes are real wire bytes whether a
// round ran in-process or over TCP.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fl/compression.hpp"
#include "src/fl/dispatch.hpp"
#include "src/net/messages.hpp"

namespace haccs::fl {

/// Wire form of a compressed update (delta of length n). The payload's
/// to_dense() reproduces `compressed.dense` bit-exactly. Throws
/// std::logic_error if the emitted tensor body would not match
/// compressed_wire_bytes(n, config) — the latency model's pricing and the
/// wire must never drift.
net::UpdatePayload make_update_payload(const CompressedUpdate& compressed,
                                       std::size_t n,
                                       const CompressionConfig& config);

/// The TrainJob ordering `job` under the round's recipe `work`, carrying
/// the global `params` and the round's trace context (invalid = untraced,
/// encoded as zero extra bytes).
net::TrainJobMsg make_train_job(const TrainJobSpec& job,
                                const LocalWorkConfig& work,
                                const std::vector<float>& params,
                                const obs::TraceContext& trace);

/// What a TrainJob orders: make_train_job's inverse. The spec's slot is
/// dispatcher-local, not on the wire, and comes back 0.
struct TrainJobOrder {
  TrainJobSpec job;
  LocalWorkConfig work;
};
TrainJobOrder read_train_job(const net::TrainJobMsg& msg);

/// A round's recipe in its wire form (a TrainJob's, a SubtreeRound's), and
/// its inverse: read_work_recipe(make_work_recipe(w)) orders the same local
/// work as w, so a TrainJob built from either is the same bytes.
net::WorkRecipe make_work_recipe(const LocalWorkConfig& work);
LocalWorkConfig read_work_recipe(const net::WorkRecipe& recipe);

/// Full frame size of a TrainJob carrying an n-parameter model (downlink).
std::size_t train_job_frame_bytes(std::size_t n);

/// Full frame size of a ClientUpdate carrying an n-parameter update under
/// `config` (uplink): metadata overhead + compressed_wire_bytes(n, config).
std::size_t update_frame_bytes(std::size_t n, const CompressionConfig& config);

}  // namespace haccs::fl
