#include "src/net/messages.hpp"

#include <cmath>

#include "src/net/wire.hpp"

namespace haccs::net {

namespace {

/// Fixed payload bytes ahead of a TrainJob's params data: 14 scalar fields
/// (87 bytes) plus the params array's 8-byte count.
constexpr std::size_t kTrainJobFixedBytes = 95;
/// Fixed payload bytes ahead of a ClientUpdate's tensor body: 6 scalar
/// fields (44 bytes) plus the update's kind/size/count tags (17 bytes).
constexpr std::size_t kClientUpdateFixedBytes = 61;
/// The optional trace-context trailer: three u64s.
constexpr std::size_t kTraceTrailerBytes = 24;
/// Fixed SubtreeUpdate payload bytes: epoch, agg_id, weight and the sum's
/// and stats' 8-byte counts.
constexpr std::size_t kSubtreeUpdateFixedBytes = 36;
/// One SubtreeClientStat on the wire.
constexpr std::size_t kSubtreeStatBytes = 38;
/// Fixed SubtreeRound payload bytes: epoch, max_update_norm, the 59-byte
/// recipe and the params' and jobs' 8-byte counts.
constexpr std::size_t kSubtreeRoundFixedBytes = 91;
/// One SubtreeJob on the wire.
constexpr std::size_t kSubtreeJobBytes = 20;

/// Decoder entry: checks the frame's type tag before parsing.
WireReader reader_for(const Frame& frame, MessageType expected,
                      const char* what) {
  if (frame.type != expected) {
    throw WireError(std::string("decode: frame is not a ") + what);
  }
  return WireReader(frame.payload);
}

/// Update payload: kind u8, dense-size u64, element-count u64, then the body
/// (which is exactly the bytes fl::compressed_wire_bytes prices — see
/// update_body_bytes).
void encode_update_payload(WireWriter& w, const UpdatePayload& p) {
  w.u8(static_cast<std::uint8_t>(p.kind));
  w.u64(p.size);
  switch (p.kind) {
    case UpdateKind::Dense:
      if (p.dense.size() != p.size) {
        throw WireError("encode: dense update size mismatch");
      }
      w.f32_array(p.dense);
      return;
    case UpdateKind::SparseTopK:
      if (p.indices.size() != p.values.size()) {
        throw WireError("encode: top-k index/value arity mismatch");
      }
      w.u64(p.indices.size());
      w.bytes(p.indices.data(), p.indices.size() * sizeof(std::uint32_t));
      w.bytes(p.values.data(), p.values.size() * sizeof(float));
      return;
    case UpdateKind::Int8:
      if (p.codes.size() != p.size) {
        throw WireError("encode: int8 update size mismatch");
      }
      w.u64(p.codes.size());
      w.f32(p.lo);
      w.f32(p.step);
      w.bytes(p.codes.data(), p.codes.size());
      return;
  }
  throw WireError("encode: bad update kind");
}

UpdatePayload decode_update_payload(WireReader& r) {
  UpdatePayload p;
  const auto kind = r.u8();
  p.size = r.u64();
  const std::uint64_t count = r.u64();
  switch (static_cast<UpdateKind>(kind)) {
    case UpdateKind::Dense: {
      p.kind = UpdateKind::Dense;
      if (count != p.size) throw WireError("decode: dense count mismatch");
      if (count > r.remaining() / sizeof(float)) {
        throw WireError("decode: dense update exceeds payload");
      }
      p.dense.resize(static_cast<std::size_t>(count));
      r.bytes(p.dense.data(), p.dense.size() * sizeof(float));
      return p;
    }
    case UpdateKind::SparseTopK: {
      p.kind = UpdateKind::SparseTopK;
      if (count > p.size || count > r.remaining() / 8) {
        throw WireError("decode: top-k count exceeds payload");
      }
      p.indices.resize(static_cast<std::size_t>(count));
      p.values.resize(static_cast<std::size_t>(count));
      r.bytes(p.indices.data(), p.indices.size() * sizeof(std::uint32_t));
      for (const std::uint32_t i : p.indices) {
        if (i >= p.size) throw WireError("decode: top-k index out of range");
      }
      r.bytes(p.values.data(), p.values.size() * sizeof(float));
      return p;
    }
    case UpdateKind::Int8: {
      p.kind = UpdateKind::Int8;
      if (count != p.size) throw WireError("decode: int8 count mismatch");
      p.lo = r.f32();
      p.step = r.f32();
      if (count > r.remaining()) {
        throw WireError("decode: int8 update exceeds payload");
      }
      p.codes.resize(static_cast<std::size_t>(count));
      r.bytes(p.codes.data(), p.codes.size());
      return p;
    }
  }
  throw WireError("decode: bad update kind");
}

/// Trace-context trailer (24 bytes), written only for a valid context so
/// untraced frames stay byte-identical to pre-trace builds. Decoders call
/// the read side after every declared field: leftover payload either holds
/// exactly one trailer or the frame is malformed (a partial trailer fails
/// the u64 reads, so the existing trailing-garbage rejection still holds).
void encode_trace_ctx(WireWriter& w, const obs::TraceContext& ctx) {
  if (!ctx.valid()) return;
  w.u64(ctx.trace_id);
  w.u64(ctx.parent_span);
  w.u64(static_cast<std::uint64_t>(ctx.round));
}

obs::TraceContext decode_trace_ctx(WireReader& r) {
  obs::TraceContext ctx;
  if (r.remaining() > 0) {
    ctx.trace_id = r.u64();
    ctx.parent_span = r.u64();
    ctx.round = static_cast<std::int64_t>(r.u64());
  }
  return ctx;
}

/// A WorkRecipe on the wire. A TrainJob carries its client's work_fraction
/// between fedprox_mu and local_epochs; a SubtreeRound passes null and
/// carries none there.
void encode_recipe(WireWriter& w, const WorkRecipe& recipe,
                   const double* work_fraction) {
  w.u8(recipe.algorithm);
  w.f64(recipe.fedprox_mu);
  if (work_fraction) w.f64(*work_fraction);
  w.u64(recipe.local_epochs);
  w.u64(recipe.batch_size);
  w.f64(recipe.learning_rate);
  w.f64(recipe.momentum);
  w.f64(recipe.weight_decay);
  w.u8(recipe.compression_kind);
  w.f64(recipe.topk_fraction);
  w.u8(recipe.error_feedback);
}

WorkRecipe decode_recipe(WireReader& r, double* work_fraction) {
  WorkRecipe recipe;
  recipe.algorithm = r.u8();
  recipe.fedprox_mu = r.f64();
  if (work_fraction) *work_fraction = r.f64();
  recipe.local_epochs = r.u64();
  recipe.batch_size = r.u64();
  recipe.learning_rate = r.f64();
  recipe.momentum = r.f64();
  recipe.weight_decay = r.f64();
  recipe.compression_kind = r.u8();
  recipe.topk_fraction = r.f64();
  recipe.error_feedback = r.u8();
  return recipe;
}

}  // namespace

std::vector<float> UpdatePayload::to_dense() const {
  const auto n = static_cast<std::size_t>(size);
  switch (kind) {
    case UpdateKind::Dense:
      return dense;
    case UpdateKind::SparseTopK: {
      std::vector<float> out(n, 0.0f);
      for (std::size_t i = 0; i < indices.size(); ++i) {
        out[indices[i]] = values[i];
      }
      return out;
    }
    case UpdateKind::Int8: {
      std::vector<float> out(n);
      // The exact arithmetic the compressor used for its own dense view —
      // dequantization on the server matches the client bit for bit.
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = lo + static_cast<float>(codes[i]) * step;
      }
      return out;
    }
  }
  throw WireError("to_dense: bad update kind");
}

std::size_t update_body_bytes(const UpdatePayload& payload) {
  switch (payload.kind) {
    case UpdateKind::Dense:
      return payload.dense.size() * sizeof(float);
    case UpdateKind::SparseTopK:
      return payload.indices.size() * (sizeof(std::uint32_t) + sizeof(float));
    case UpdateKind::Int8:
      return payload.codes.size() + 2 * sizeof(float);
  }
  throw WireError("update_body_bytes: bad update kind");
}

Frame encode_hello(const HelloMsg& msg) {
  WireWriter w;
  w.u32(msg.worker_id);
  w.u32(msg.num_clients);
  return Frame{MessageType::Hello, w.take()};
}

HelloMsg decode_hello(const Frame& frame) {
  auto r = reader_for(frame, MessageType::Hello, "Hello");
  HelloMsg msg;
  msg.worker_id = r.u32();
  msg.num_clients = r.u32();
  r.expect_exhausted();
  return msg;
}

Frame encode_train_job(const TrainJobMsg& msg) {
  WireWriter w;
  w.reserve(kTrainJobFixedBytes + msg.params.size() * sizeof(float) +
            kTraceTrailerBytes);
  w.u64(msg.epoch);
  w.u32(msg.client_id);
  w.u64(msg.rng_seed);
  encode_recipe(w, msg.recipe, &msg.work_fraction);
  w.f32_array(msg.params);
  encode_trace_ctx(w, msg.trace);
  return Frame{MessageType::TrainJob, w.take()};
}

TrainJobMsg decode_train_job(const Frame& frame) {
  auto r = reader_for(frame, MessageType::TrainJob, "TrainJob");
  TrainJobMsg msg;
  msg.epoch = r.u64();
  msg.client_id = r.u32();
  msg.rng_seed = r.u64();
  msg.recipe = decode_recipe(r, &msg.work_fraction);
  msg.params = r.f32_array();
  msg.trace = decode_trace_ctx(r);
  r.expect_exhausted();
  return msg;
}

Frame encode_client_update(const ClientUpdateMsg& msg) {
  WireWriter w;
  w.reserve(kClientUpdateFixedBytes + update_body_bytes(msg.update) +
            kTraceTrailerBytes);
  w.u64(msg.epoch);
  w.u32(msg.client_id);
  w.f64(msg.average_loss);
  w.f64(msg.final_loss);
  w.u64(msg.batches);
  w.u64(msg.sample_count);
  encode_update_payload(w, msg.update);
  encode_trace_ctx(w, msg.trace);
  return Frame{MessageType::ClientUpdate, w.take()};
}

ClientUpdateMsg decode_client_update(const Frame& frame) {
  auto r = reader_for(frame, MessageType::ClientUpdate, "ClientUpdate");
  ClientUpdateMsg msg;
  msg.epoch = r.u64();
  msg.client_id = r.u32();
  msg.average_loss = r.f64();
  msg.final_loss = r.f64();
  msg.batches = r.u64();
  msg.sample_count = r.u64();
  msg.update = decode_update_payload(r);
  msg.trace = decode_trace_ctx(r);
  r.expect_exhausted();
  return msg;
}

Frame encode_eval_report(const EvalReportMsg& msg) {
  WireWriter w;
  w.u64(msg.epoch);
  w.f64(msg.accuracy);
  w.f64(msg.loss);
  encode_trace_ctx(w, msg.trace);
  return Frame{MessageType::EvalReport, w.take()};
}

EvalReportMsg decode_eval_report(const Frame& frame) {
  auto r = reader_for(frame, MessageType::EvalReport, "EvalReport");
  EvalReportMsg msg;
  msg.epoch = r.u64();
  msg.accuracy = r.f64();
  msg.loss = r.f64();
  msg.trace = decode_trace_ctx(r);
  r.expect_exhausted();
  return msg;
}

Frame encode_summary(const SummaryMsg& msg) {
  WireWriter w;
  w.u32(msg.client_id);
  w.u8(msg.kind);
  w.f64(msg.lo);
  w.f64(msg.hi);
  w.u64(msg.tables.size());
  for (const auto& table : msg.tables) w.f64_array(table);
  w.f64_array(msg.mass);
  return Frame{MessageType::Summary, w.take()};
}

SummaryMsg decode_summary(const Frame& frame) {
  auto r = reader_for(frame, MessageType::Summary, "Summary");
  SummaryMsg msg;
  msg.client_id = r.u32();
  msg.kind = r.u8();
  msg.lo = r.f64();
  msg.hi = r.f64();
  const std::uint64_t rows = r.u64();
  // Each row costs at least its 8-byte count on the wire.
  if (rows > r.remaining() / sizeof(std::uint64_t)) {
    throw WireError("decode: summary table count exceeds payload");
  }
  msg.tables.resize(static_cast<std::size_t>(rows));
  for (auto& table : msg.tables) table = r.f64_array();
  msg.mass = r.f64_array();
  r.expect_exhausted();
  return msg;
}

Frame encode_trace_shard(const TraceShardMsg& msg) {
  WireWriter w;
  w.u32(msg.worker_id);
  w.u64(msg.trace_id);
  w.u64(msg.send_ns);
  w.u64(msg.events.size());
  for (const obs::PortableTraceEvent& e : msg.events) {
    w.string(e.name);
    w.string(e.category);
    w.u32(e.tid);
    w.u64(e.ts_ns);
    w.u64(e.dur_ns);
    w.u64(e.span_id);
    w.u64(e.parent_id);
    w.u64(static_cast<std::uint64_t>(e.round));
    w.u8(e.instant ? 1 : 0);
  }
  return Frame{MessageType::TraceShard, w.take()};
}

TraceShardMsg decode_trace_shard(const Frame& frame) {
  auto r = reader_for(frame, MessageType::TraceShard, "TraceShard");
  TraceShardMsg msg;
  msg.worker_id = r.u32();
  msg.trace_id = r.u64();
  msg.send_ns = r.u64();
  const std::uint64_t count = r.u64();
  // Every event costs at least its two string counts (16) plus the fixed
  // fields (tid 4, five u64s 40, instant 1) = 61 bytes on the wire.
  if (count > r.remaining() / 61) {
    throw WireError("decode: trace shard event count exceeds payload");
  }
  msg.events.resize(static_cast<std::size_t>(count));
  for (obs::PortableTraceEvent& e : msg.events) {
    e.name = r.string();
    e.category = r.string();
    e.tid = r.u32();
    e.ts_ns = r.u64();
    e.dur_ns = r.u64();
    e.span_id = r.u64();
    e.parent_id = r.u64();
    e.round = static_cast<std::int64_t>(r.u64());
    e.instant = r.u8() != 0;
  }
  r.expect_exhausted();
  return msg;
}

Frame encode_topology_hello(const TopologyHelloMsg& msg) {
  WireWriter w;
  w.u32(msg.agg_id);
  w.u32(msg.num_aggs);
  w.u32(msg.worker_begin);
  w.u32(msg.worker_end);
  w.u32(msg.num_clients);
  return Frame{MessageType::TopologyHello, w.take()};
}

TopologyHelloMsg decode_topology_hello(const Frame& frame) {
  auto r = reader_for(frame, MessageType::TopologyHello, "TopologyHello");
  TopologyHelloMsg msg;
  msg.agg_id = r.u32();
  msg.num_aggs = r.u32();
  msg.worker_begin = r.u32();
  msg.worker_end = r.u32();
  msg.num_clients = r.u32();
  if (msg.worker_end < msg.worker_begin) {
    throw WireError("decode: topology worker range inverted");
  }
  r.expect_exhausted();
  return msg;
}

Frame encode_subtree_update(const SubtreeUpdateMsg& msg) {
  WireWriter w;
  w.reserve(kSubtreeUpdateFixedBytes + msg.sum.size() * sizeof(double) +
            msg.stats.size() * kSubtreeStatBytes);
  w.u64(msg.epoch);
  w.u32(msg.agg_id);
  w.f64(msg.weight);
  w.f64_array(msg.sum);
  w.u64(msg.stats.size());
  for (const SubtreeClientStat& s : msg.stats) {
    w.u32(s.client_id);
    w.u8(s.delivered);
    w.u8(s.failure);
    w.f64(s.average_loss);
    w.f64(s.final_loss);
    w.u64(s.batches);
    w.u64(s.sample_count);
  }
  return Frame{MessageType::SubtreeUpdate, w.take()};
}

SubtreeUpdateMsg decode_subtree_update(const Frame& frame) {
  auto r = reader_for(frame, MessageType::SubtreeUpdate, "SubtreeUpdate");
  SubtreeUpdateMsg msg;
  msg.epoch = r.u64();
  msg.agg_id = r.u32();
  msg.weight = r.f64();
  msg.sum = r.f64_array();
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / kSubtreeStatBytes) {
    throw WireError("decode: subtree stat count exceeds payload");
  }
  msg.stats.resize(static_cast<std::size_t>(count));
  for (SubtreeClientStat& s : msg.stats) {
    s.client_id = r.u32();
    s.delivered = r.u8();
    s.failure = r.u8();
    s.average_loss = r.f64();
    s.final_loss = r.f64();
    s.batches = r.u64();
    s.sample_count = r.u64();
  }
  r.expect_exhausted();
  return msg;
}

Frame encode_subtree_round(const SubtreeRoundMsg& msg) {
  WireWriter w;
  w.reserve(kSubtreeRoundFixedBytes + msg.params.size() * sizeof(float) +
            msg.jobs.size() * kSubtreeJobBytes + kTraceTrailerBytes);
  w.u64(msg.epoch);
  w.f64(msg.max_update_norm);
  encode_recipe(w, msg.recipe, nullptr);
  w.f32_array(msg.params);
  w.u64(msg.jobs.size());
  for (const SubtreeJob& job : msg.jobs) {
    w.u32(job.client_id);
    w.u64(job.rng_seed);
    w.f64(job.work_fraction);
  }
  encode_trace_ctx(w, msg.trace);
  return Frame{MessageType::SubtreeRound, w.take()};
}

SubtreeRoundMsg decode_subtree_round(const Frame& frame) {
  auto r = reader_for(frame, MessageType::SubtreeRound, "SubtreeRound");
  SubtreeRoundMsg msg;
  msg.epoch = r.u64();
  msg.max_update_norm = r.f64();
  if (!std::isfinite(msg.max_update_norm)) {
    throw WireError("decode: subtree round norm bound is not finite");
  }
  msg.recipe = decode_recipe(r, nullptr);
  msg.params = r.f32_array();
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / kSubtreeJobBytes) {
    throw WireError("decode: subtree job count exceeds payload");
  }
  msg.jobs.resize(static_cast<std::size_t>(count));
  for (SubtreeJob& job : msg.jobs) {
    job.client_id = r.u32();
    job.rng_seed = r.u64();
    job.work_fraction = r.f64();
  }
  msg.trace = decode_trace_ctx(r);
  r.expect_exhausted();
  return msg;
}

Frame encode_heartbeat() { return Frame{MessageType::Heartbeat, {}}; }

Frame encode_shutdown() { return Frame{MessageType::Shutdown, {}}; }

std::size_t train_job_overhead_bytes() {
  // The params data itself (4 bytes per parameter) is the variable part.
  return kFrameHeaderBytes + kTrainJobFixedBytes;
}

std::size_t client_update_overhead_bytes() {
  // The tensor body (update_body_bytes == fl::compressed_wire_bytes) is the
  // variable part.
  return kFrameHeaderBytes + kClientUpdateFixedBytes;
}

}  // namespace haccs::net
