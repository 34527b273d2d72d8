// Tests for the wire protocol + transport layer: CRC32 vectors, wire
// primitive round trips (NaN/Inf bit-exactness), frame encode/decode and
// the incremental parser under split/corrupt/desynchronized input, payload
// codec edge cases, the wire-bytes/pricing parity contract, the summary
// codec, frame-format checkpoints, loopback and TCP transports, and the
// headline guarantee: an engine run dispatched over a transport is
// bit-identical to the direct in-process run, and transport failures reach
// ClientSelector::report_failure like simulated faults.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/net_driver.hpp"
#include "src/fl/protocol.hpp"
#include "src/net/crc32.hpp"
#include "src/net/frame.hpp"
#include "src/net/loopback.hpp"
#include "src/net/messages.hpp"
#include "src/net/tcp.hpp"
#include "src/net/wire.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/serialize.hpp"
#include "src/obs/obs.hpp"
#include "src/select/random_selector.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

bool same_bits(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3) check value.
  const char* check = "123456789";
  EXPECT_EQ(net::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(net::crc32("", 0), 0u);
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(net::crc32(zeros, 4), 0x2144DF1Cu);
}

TEST(Crc32, SeedChainsIncrementally) {
  const char* data = "hello, federation";
  const std::size_t n = std::strlen(data);
  const std::uint32_t whole = net::crc32(data, n);
  for (std::size_t split = 0; split <= n; ++split) {
    const std::uint32_t first = net::crc32(data, split);
    EXPECT_EQ(net::crc32(data + split, n - split, first), whole)
        << "split at " << split;
  }
}

/// The CRC-32 definition, one byte at a time and one bit at a time: no
/// tables, so it shares nothing with the sliced implementation under test.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t len,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..256 cover every tail length after the 16-byte blocks; start
  // offsets 0..15 cover every alignment of the word loads.
  const auto bytes = random_bytes(256 + 16, 21);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(net::crc32(p, len), crc32_reference(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceUnderChainedRandomSeeds) {
  const auto bytes = random_bytes(4096, 22);
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t len = rng.next_u64() % bytes.size();
    const std::size_t split = len == 0 ? 0 : rng.next_u64() % (len + 1);
    const std::uint32_t expected = crc32_reference(bytes.data(), len, seed);
    ASSERT_EQ(net::crc32(bytes.data(), len, seed), expected)
        << "seed " << seed << " length " << len;
    const std::uint32_t first = net::crc32(bytes.data(), split, seed);
    ASSERT_EQ(net::crc32(bytes.data() + split, len - split, first), expected)
        << "seed " << seed << " length " << len << " split " << split;
  }
}

TEST(Crc32, MatchesReferenceOnOneMebibyte) {
  const auto bytes = random_bytes(std::size_t{1} << 20, 24);
  EXPECT_EQ(net::crc32(bytes.data(), bytes.size()),
            crc32_reference(bytes.data(), bytes.size()));
}

// The table path alone: crc32 takes it on hosts without PCLMULQDQ (or under
// HACCS_PORTABLE_KERNELS=1), and for every tail shorter than 16 bytes.
TEST(Crc32Table, MatchesReferenceAtEveryLengthAndAlignment) {
  const auto bytes = random_bytes(256 + 16, 25);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(net::crc32_table(p, len), crc32_reference(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Table, MatchesReferenceUnderRandomSeedsAndLengths) {
  const auto bytes = random_bytes(std::size_t{1} << 16, 26);
  Rng rng(27);
  for (int trial = 0; trial < 100; ++trial) {
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t len = rng.next_u64() % bytes.size();
    ASSERT_EQ(net::crc32_table(bytes.data(), len, seed),
              crc32_reference(bytes.data(), len, seed))
        << "seed " << seed << " length " << len;
  }
}

TEST(Crc32Table, AgreesWithTheDispatchedPathAcrossBlockBoundaries) {
  // Lengths around the 64-byte minimum and the 16-byte block edges, where
  // the carry-less-multiply path hands its tail to the table path.
  const auto bytes = random_bytes(4096 + 16, 28);
  for (std::size_t len : {63u, 64u, 65u, 79u, 80u, 127u, 128u, 129u, 191u,
                          192u, 1000u, 4095u, 4096u}) {
    for (std::size_t offset : {0u, 1u, 7u, 15u}) {
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(net::crc32(p, len, 0x12345678u),
                net::crc32_table(p, len, 0x12345678u))
          << "offset " << offset << " length " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire primitives

TEST(Wire, ScalarsRoundTrip) {
  net::WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f32(-1.5f);
  w.f64(3.141592653589793);
  w.string("haccs");
  net::WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f32(), -1.5f);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.string(), "haccs");
  EXPECT_NO_THROW(r.expect_exhausted());
}

TEST(Wire, NanAndInfRoundTripBitExactly) {
  // A corrupted update must arrive unmodified so server-side validation
  // rejects it for the right reason — the codec must not launder NaN.
  const std::vector<float> values = {kNaN, -kNaN, kInf, -kInf, 0.0f, -0.0f,
                                     std::numeric_limits<float>::denorm_min()};
  net::WireWriter w;
  w.f32_array(values);
  net::WireReader r(w.data());
  const auto back = r.f32_array();
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(same_bits(values[i], back[i])) << "index " << i;
  }
}

TEST(Wire, TruncatedPayloadThrows) {
  net::WireWriter w;
  w.u64(42);
  auto bytes = w.take();
  bytes.pop_back();
  net::WireReader r(bytes);
  EXPECT_THROW(r.u64(), net::WireError);
}

TEST(Wire, AbsurdArrayCountThrowsBeforeAllocating) {
  net::WireWriter w;
  w.u64(std::uint64_t{1} << 60);  // declared count, no elements follow
  net::WireReader r(w.data());
  EXPECT_THROW(r.f32_array(), net::WireError);
}

TEST(Wire, UnconsumedBytesFailExhaustionCheck) {
  net::WireWriter w;
  w.u32(7);
  w.u32(8);
  net::WireReader r(w.data());
  r.u32();
  EXPECT_THROW(r.expect_exhausted(), net::WireError);
}

// ---------------------------------------------------------------------------
// Frames

/// A small frame with a payload that names its sender: an empty TraceShard,
/// 28 payload bytes.
net::Frame shard_frame(std::uint32_t sender, std::uint64_t epoch) {
  return net::encode_trace_shard({sender, epoch, 0, {}});
}

std::uint32_t sender_of(const net::Frame& frame) {
  return net::decode_trace_shard(frame).worker_id;
}

TEST(Frame, EncodeDecodeRoundTrip) {
  const net::Frame frame = shard_frame(3, 17);
  const auto bytes = net::encode_frame(frame);
  EXPECT_EQ(bytes.size(), net::kFrameHeaderBytes + frame.payload.size());
  net::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(bytes, &out, &consumed), net::FrameStatus::Ok);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, net::MessageType::TraceShard);
  EXPECT_EQ(out.payload, frame.payload);
}

TEST(Frame, EmptyPayloadRoundTrips) {
  const auto bytes = net::encode_frame(net::encode_shutdown());
  EXPECT_EQ(bytes.size(), net::kFrameHeaderBytes);
  net::Frame out;
  ASSERT_EQ(net::decode_frame(bytes, &out), net::FrameStatus::Ok);
  EXPECT_EQ(out.type, net::MessageType::Shutdown);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Frame, HeaderDamageIsDetected) {
  auto bytes = net::encode_frame(shard_frame(1, 1));
  net::Frame out;
  {
    auto bad = bytes;
    bad[0] = 'X';  // magic
    EXPECT_EQ(net::decode_frame(bad, &out), net::FrameStatus::BadMagic);
  }
  {
    auto bad = bytes;
    bad[4] = 0xFF;  // version
    EXPECT_EQ(net::decode_frame(bad, &out), net::FrameStatus::BadVersion);
  }
  {
    auto bad = bytes;
    bad[11] = 0x7F;  // length high byte -> > kMaxPayloadBytes
    EXPECT_EQ(net::decode_frame(bad, &out), net::FrameStatus::BadLength);
  }
}

TEST(Frame, PayloadDamageFailsChecksum) {
  auto bytes = net::encode_frame(shard_frame(1, 1));
  bytes[net::kFrameHeaderBytes] ^= 0x01;
  net::Frame out;
  EXPECT_EQ(net::decode_frame(bytes, &out), net::FrameStatus::BadChecksum);
}

TEST(Frame, TruncationReportsNeedMore) {
  const auto bytes = net::encode_frame(shard_frame(1, 1));
  net::Frame out;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_EQ(net::decode_frame(prefix, &out), net::FrameStatus::NeedMore)
        << "prefix length " << cut;
  }
}

TEST(FrameParser, ReassemblesFramesFedByteByByte) {
  // A TCP read returns whatever the kernel has; the parser must reassemble
  // frames from arbitrary fragmentation — here the worst case, 1 byte.
  std::vector<net::Frame> sent;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    sent.push_back(shard_frame(i, 100 + i));
    const auto bytes = net::encode_frame(sent.back());
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  net::FrameParser parser;
  std::vector<net::Frame> received;
  for (std::uint8_t byte : stream) {
    parser.feed({&byte, 1});
    net::Frame out;
    const auto status = parser.next(&out);
    if (status == net::FrameStatus::Ok) {
      received.push_back(std::move(out));
    } else {
      EXPECT_EQ(status, net::FrameStatus::NeedMore);
    }
  }
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].payload, sent[i].payload);
  }
  EXPECT_FALSE(parser.fatal());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, CorruptFrameIsConsumedAndStreamContinues) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto bytes = net::encode_frame(shard_frame(i, i));
    if (i == 1) bytes[net::kFrameHeaderBytes + 2] ^= 0xFF;  // damage frame 1
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  net::FrameParser parser;
  parser.feed(stream);
  net::Frame out;
  ASSERT_EQ(parser.next(&out), net::FrameStatus::Ok);
  EXPECT_EQ(sender_of(out), 0u);
  ASSERT_EQ(parser.next(&out), net::FrameStatus::BadChecksum);
  ASSERT_EQ(parser.next(&out), net::FrameStatus::Ok);
  EXPECT_EQ(sender_of(out), 2u);
  EXPECT_FALSE(parser.fatal());
}

TEST(FrameParser, HeaderDamageIsFatal) {
  auto bytes = net::encode_frame(shard_frame(0, 0));
  bytes[1] ^= 0xFF;  // magic
  net::FrameParser parser;
  parser.feed(bytes);
  net::Frame out;
  EXPECT_EQ(parser.next(&out), net::FrameStatus::BadMagic);
  EXPECT_TRUE(parser.fatal());
}

// ---------------------------------------------------------------------------
// Message codecs

TEST(NetCodec, TrainJobRoundTripsEveryField) {
  net::TrainJobMsg msg;
  msg.epoch = 41;
  msg.client_id = 9;
  msg.rng_seed = 0xFEEDFACECAFEBEEFull;
  msg.recipe.algorithm = 1;
  msg.recipe.fedprox_mu = 0.03;
  msg.work_fraction = 0.4;
  msg.recipe.local_epochs = 3;
  msg.recipe.batch_size = 16;
  msg.recipe.learning_rate = 0.05;
  msg.recipe.momentum = 0.9;
  msg.recipe.weight_decay = 1e-4;
  msg.recipe.compression_kind = 2;
  msg.recipe.topk_fraction = 0.25;
  msg.recipe.error_feedback = 0;
  msg.params = {1.0f, -2.5f, kNaN, kInf, 0.0f};
  const auto frame = net::encode_train_job(msg);
  EXPECT_EQ(net::kFrameHeaderBytes + frame.payload.size(),
            fl::train_job_frame_bytes(msg.params.size()));
  const auto back = net::decode_train_job(frame);
  EXPECT_EQ(back.epoch, msg.epoch);
  EXPECT_EQ(back.client_id, msg.client_id);
  EXPECT_EQ(back.rng_seed, msg.rng_seed);
  EXPECT_EQ(back.recipe.algorithm, msg.recipe.algorithm);
  EXPECT_EQ(back.recipe.fedprox_mu, msg.recipe.fedprox_mu);
  EXPECT_EQ(back.work_fraction, msg.work_fraction);
  EXPECT_EQ(back.recipe.local_epochs, msg.recipe.local_epochs);
  EXPECT_EQ(back.recipe.batch_size, msg.recipe.batch_size);
  EXPECT_EQ(back.recipe.learning_rate, msg.recipe.learning_rate);
  EXPECT_EQ(back.recipe.momentum, msg.recipe.momentum);
  EXPECT_EQ(back.recipe.weight_decay, msg.recipe.weight_decay);
  EXPECT_EQ(back.recipe.compression_kind, msg.recipe.compression_kind);
  EXPECT_EQ(back.recipe.topk_fraction, msg.recipe.topk_fraction);
  EXPECT_EQ(back.recipe.error_feedback, msg.recipe.error_feedback);
  ASSERT_EQ(back.params.size(), msg.params.size());
  for (std::size_t i = 0; i < msg.params.size(); ++i) {
    EXPECT_TRUE(same_bits(back.params[i], msg.params[i])) << "param " << i;
  }
}

// make_train_job and its inverse read_train_job: every recipe field an
// EngineConfig orders and every spec field but the dispatcher-local slot
// survive make_train_job -> wire -> read_train_job.
TEST(NetCodec, MakeAndReadTrainJobRecoverRecipeAndSpec) {
  fl::EngineConfig engine;
  engine.local.epochs = 3;
  engine.local.batch_size = 16;
  engine.local.sgd.learning_rate = 0.05;
  engine.local.sgd.momentum = 0.9;
  engine.local.sgd.weight_decay = 1e-4;
  engine.algorithm = fl::LocalAlgorithm::FedProx;
  engine.fedprox_mu = 0.03;
  engine.compression.kind = fl::CompressionKind::TopK;
  engine.compression.topk_fraction = 0.25;
  engine.compression.error_feedback = false;
  const fl::LocalWorkConfig work = fl::local_work_config(engine);
  fl::TrainJobSpec spec;
  spec.slot = 5;
  spec.client_id = 9;
  spec.epoch = 41;
  spec.rng_seed = 0xFEEDFACECAFEBEEFull;
  spec.work_fraction = 0.4;
  const std::vector<float> params = {1.0f, -2.5f};
  obs::TraceContext trace;
  trace.trace_id = 7;
  trace.parent_span = 8;
  trace.round = 41;

  const net::TrainJobMsg msg = net::decode_train_job(
      net::encode_train_job(fl::make_train_job(spec, work, params, trace)));
  EXPECT_EQ(msg.params, params);
  EXPECT_EQ(msg.trace.trace_id, 7u);
  EXPECT_EQ(msg.trace.parent_span, 8u);
  const fl::TrainJobOrder order = fl::read_train_job(msg);
  EXPECT_EQ(order.job.slot, 0u);
  EXPECT_EQ(order.job.client_id, spec.client_id);
  EXPECT_EQ(order.job.epoch, spec.epoch);
  EXPECT_EQ(order.job.rng_seed, spec.rng_seed);
  EXPECT_EQ(order.job.work_fraction, spec.work_fraction);
  EXPECT_EQ(order.work.local.epochs, 3u);
  EXPECT_EQ(order.work.local.batch_size, 16u);
  EXPECT_EQ(order.work.local.sgd.learning_rate, 0.05);
  EXPECT_EQ(order.work.local.sgd.momentum, 0.9);
  EXPECT_EQ(order.work.local.sgd.weight_decay, 1e-4);
  EXPECT_TRUE(order.work.fedprox);
  EXPECT_EQ(order.work.fedprox_mu, 0.03);
  EXPECT_EQ(order.work.compression.kind, fl::CompressionKind::TopK);
  EXPECT_EQ(order.work.compression.topk_fraction, 0.25);
  EXPECT_FALSE(order.work.compression.error_feedback);
}

TEST(NetCodec, EmptyParamsRoundTrip) {
  net::TrainJobMsg msg;  // zero-length model: degenerate but legal
  const auto back = net::decode_train_job(net::encode_train_job(msg));
  EXPECT_TRUE(back.params.empty());
}

TEST(NetCodec, DecodeRejectsWrongFrameType) {
  EXPECT_THROW(net::decode_hello(shard_frame(0, 0)), net::WireError);
  EXPECT_THROW(net::decode_train_job(shard_frame(0, 0)), net::WireError);
  EXPECT_THROW(net::decode_client_update(shard_frame(0, 0)),
               net::WireError);
}

TEST(NetCodec, DecodeRejectsTruncatedAndTrailingPayloads) {
  net::TrainJobMsg msg;
  msg.params = {1.0f, 2.0f, 3.0f};
  auto frame = net::encode_train_job(msg);
  {
    auto cut = frame;
    cut.payload.resize(cut.payload.size() - 2);
    EXPECT_THROW(net::decode_train_job(cut), net::WireError);
  }
  {
    auto padded = frame;
    padded.payload.push_back(0);
    EXPECT_THROW(net::decode_train_job(padded), net::WireError);
  }
}

TEST(NetCodec, SmallerControlMessagesRoundTrip) {
  {
    const net::HelloMsg back =
        net::decode_hello(net::encode_hello({7, 25}));
    EXPECT_EQ(back.worker_id, 7u);
    EXPECT_EQ(back.num_clients, 25u);
  }
  {
    net::EvalReportMsg msg{30, 0.825, 0.61, {}};
    const auto back = net::decode_eval_report(net::encode_eval_report(msg));
    EXPECT_EQ(back.epoch, msg.epoch);
    EXPECT_EQ(back.accuracy, msg.accuracy);
    EXPECT_EQ(back.loss, msg.loss);
  }
}

// ---------------------------------------------------------------------------
// Trace-context trailers + TraceShard (DESIGN.md §5i)

TEST(NetCodec, TraceTrailerIsOptionalAndCostsExactly24Bytes) {
  net::TrainJobMsg msg;
  msg.epoch = 3;
  msg.params = {1.0f, 2.0f};
  const auto plain = net::encode_train_job(msg);
  // Untraced frames are byte-identical to pre-trace builds, so the priced
  // overhead constants stay honest.
  EXPECT_EQ(net::kFrameHeaderBytes + plain.payload.size(),
            fl::train_job_frame_bytes(msg.params.size()));
  EXPECT_FALSE(net::decode_train_job(plain).trace.valid());

  msg.trace.trace_id = 0x1234abcd5678ef01ull;
  msg.trace.parent_span = 42;
  msg.trace.round = 7;
  const auto traced = net::encode_train_job(msg);
  EXPECT_EQ(traced.payload.size(), plain.payload.size() + 24);
  const auto back = net::decode_train_job(traced);
  EXPECT_TRUE(back.trace.valid());
  EXPECT_EQ(back.trace.trace_id, msg.trace.trace_id);
  EXPECT_EQ(back.trace.parent_span, msg.trace.parent_span);
  EXPECT_EQ(back.trace.round, msg.trace.round);
}

TEST(NetCodec, TraceTrailerRoundTripsOnEveryServingMessage) {
  obs::TraceContext ctx;
  ctx.trace_id = 0xfeedf00dull;
  ctx.parent_span = 9001;
  ctx.round = 12;
  {
    net::ClientUpdateMsg msg;
    msg.epoch = 12;
    msg.client_id = 4;
    msg.update.size = 0;
    msg.trace = ctx;
    const auto back = net::decode_client_update(net::encode_client_update(msg));
    EXPECT_EQ(back.trace.trace_id, ctx.trace_id);
    EXPECT_EQ(back.trace.parent_span, ctx.parent_span);
    EXPECT_EQ(back.trace.round, ctx.round);
  }
  {
    // Heartbeats carry nothing, traced run or not: an empty frame.
    const net::Frame beat = net::encode_heartbeat();
    EXPECT_EQ(beat.type, net::MessageType::Heartbeat);
    EXPECT_TRUE(beat.payload.empty());
  }
  {
    net::EvalReportMsg msg{30, 0.825, 0.61, ctx};
    const auto back = net::decode_eval_report(net::encode_eval_report(msg));
    EXPECT_EQ(back.accuracy, msg.accuracy);
    EXPECT_EQ(back.trace.trace_id, ctx.trace_id);
    EXPECT_EQ(back.trace.parent_span, ctx.parent_span);
  }
}

TEST(NetCodec, TraceShardRoundTripsEveryField) {
  net::TraceShardMsg msg;
  msg.worker_id = 3;
  msg.trace_id = 0xabcdef0011223344ull;
  msg.send_ns = 987654321;
  obs::PortableTraceEvent span;
  span.name = "local_train";
  span.category = "fl";
  span.tid = 7;
  span.ts_ns = 1000;
  span.dur_ns = 2500;
  span.span_id = (4ull << 40) + 1;
  span.parent_id = 99;
  span.round = 5;
  span.instant = false;
  obs::PortableTraceEvent mark;
  mark.name = "job.recv";
  mark.category = "net";
  mark.instant = true;
  msg.events = {span, mark};

  const auto back = net::decode_trace_shard(net::encode_trace_shard(msg));
  EXPECT_EQ(back.worker_id, msg.worker_id);
  EXPECT_EQ(back.trace_id, msg.trace_id);
  EXPECT_EQ(back.send_ns, msg.send_ns);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].name, span.name);
  EXPECT_EQ(back.events[0].category, span.category);
  EXPECT_EQ(back.events[0].tid, span.tid);
  EXPECT_EQ(back.events[0].ts_ns, span.ts_ns);
  EXPECT_EQ(back.events[0].dur_ns, span.dur_ns);
  EXPECT_EQ(back.events[0].span_id, span.span_id);
  EXPECT_EQ(back.events[0].parent_id, span.parent_id);
  EXPECT_EQ(back.events[0].round, span.round);
  EXPECT_FALSE(back.events[0].instant);
  EXPECT_EQ(back.events[1].name, mark.name);
  EXPECT_TRUE(back.events[1].instant);
}

TEST(NetCodec, TraceShardRejectsTruncatedAndTrailingPayloads) {
  net::TraceShardMsg msg;
  msg.worker_id = 1;
  msg.trace_id = 0x77;
  obs::PortableTraceEvent event;
  event.name = "round";
  event.category = "fl";
  msg.events = {event};
  const auto frame = net::encode_trace_shard(msg);
  {
    auto cut = frame;
    cut.payload.resize(cut.payload.size() - 3);
    EXPECT_THROW(net::decode_trace_shard(cut), net::WireError);
  }
  {
    auto padded = frame;
    padded.payload.push_back(0);
    EXPECT_THROW(net::decode_trace_shard(padded), net::WireError);
  }
  {
    // An absurd event count must be rejected before any allocation happens.
    // The count is the u64 after worker_id (u32) + trace_id + send_ns (u64s).
    auto bloated = frame;
    for (std::size_t i = 0; i < 8; ++i) bloated.payload[20 + i] = 0xFF;
    EXPECT_THROW(net::decode_trace_shard(bloated), net::WireError);
  }
}

// ---------------------------------------------------------------------------
// Update payloads + pricing parity

fl::CompressedUpdate compress(const std::vector<float>& update,
                              const fl::CompressionConfig& config) {
  std::vector<float> residual;
  return fl::compress_update(update, config, residual);
}

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.01f * static_cast<float>(i) - 0.3f;
  }
  return v;
}

TEST(NetCodec, UpdateBodyBytesMatchPricingForEveryKind) {
  // The consistency contract: the bytes the codec emits for an update are
  // exactly what fl::compressed_wire_bytes priced into the latency model.
  // Odd length on purpose — TopK's k = ceil(fraction * n) must agree too.
  const std::size_t n = 1237;
  const auto update = ramp(n);
  for (auto kind : {fl::CompressionKind::None, fl::CompressionKind::TopK,
                    fl::CompressionKind::Int8}) {
    fl::CompressionConfig config;
    config.kind = kind;
    config.topk_fraction = 0.07;
    const auto compressed = compress(update, config);
    const auto payload = fl::make_update_payload(compressed, n, config);
    EXPECT_EQ(net::update_body_bytes(payload),
              fl::compressed_wire_bytes(n, config))
        << "kind " << static_cast<int>(kind);

    net::ClientUpdateMsg msg;
    msg.update = payload;
    const auto frame = net::encode_client_update(msg);
    EXPECT_EQ(net::kFrameHeaderBytes + frame.payload.size(),
              fl::update_frame_bytes(n, config))
        << "kind " << static_cast<int>(kind);
  }
}

TEST(NetCodec, UpdatePayloadToDenseIsBitExact) {
  const std::size_t n = 513;
  auto update = ramp(n);
  update[7] = 1e-8f;
  update[200] = -42.0f;
  for (auto kind : {fl::CompressionKind::TopK, fl::CompressionKind::Int8}) {
    fl::CompressionConfig config;
    config.kind = kind;
    const auto compressed = compress(update, config);
    const auto payload = fl::make_update_payload(compressed, n, config);
    // Serialize through a real frame, then reconstruct — the server-side
    // dense view must match the compressor's own reconstruction bit for bit.
    net::ClientUpdateMsg msg;
    msg.update = payload;
    const auto back = net::decode_client_update(net::encode_client_update(msg));
    const auto dense = back.update.to_dense();
    ASSERT_EQ(dense.size(), compressed.dense.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      EXPECT_TRUE(same_bits(dense[i], compressed.dense[i])) << "coord " << i;
    }
  }
}

TEST(NetCodec, NanUpdateSurvivesTheWireForServerSideRejection) {
  fl::CompressionConfig config;  // None
  net::ClientUpdateMsg msg;
  msg.update.kind = net::UpdateKind::Dense;
  msg.update.dense = {1.0f, kNaN, -kInf};
  msg.update.size = 3;
  const auto back = net::decode_client_update(net::encode_client_update(msg));
  ASSERT_EQ(back.update.dense.size(), 3u);
  EXPECT_TRUE(std::isnan(back.update.dense[1]));
  EXPECT_TRUE(std::isinf(back.update.dense[2]));
  (void)config;
}

TEST(NetCodec, MakeUpdatePayloadEnforcesPricing) {
  // A hand-built update whose wire size disagrees with the pricing must be
  // rejected — the latency model and the codec are never allowed to drift.
  fl::CompressionConfig config;
  config.kind = fl::CompressionKind::TopK;
  config.topk_fraction = 0.5;
  fl::CompressedUpdate lying;
  lying.dense.resize(10, 0.0f);
  lying.topk_indices = {1};  // one pair where pricing expects five
  lying.topk_values = {2.0f};
  lying.wire_bytes = 8;
  EXPECT_THROW(fl::make_update_payload(lying, 10, config), std::logic_error);
}

TEST(NetCodec, EmptyUpdateRoundTrips) {
  net::ClientUpdateMsg msg;  // n = 0
  const auto back = net::decode_client_update(net::encode_client_update(msg));
  EXPECT_EQ(back.update.size, 0u);
  EXPECT_TRUE(back.update.to_dense().empty());
}

// ---------------------------------------------------------------------------
// Summary codec

std::vector<double> as_vector(std::span<const double> span) {
  return {span.begin(), span.end()};
}

data::Dataset tiny_dataset() {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(4);
  cfg.height = 8;
  cfg.width = 8;
  data::SyntheticImageGenerator gen(cfg);
  Rng rng(3);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 1;
  pcfg.min_samples = 40;
  pcfg.max_samples = 40;
  pcfg.test_samples = 5;
  return data::partition_majority_label(gen, pcfg, rng).clients[0].train;
}

TEST(SummaryCodec, ResponseRoundTripsThroughFrame) {
  const auto dataset = tiny_dataset();
  const auto summary = stats::summarize_response(dataset);
  const auto frame =
      net::encode_summary(stats::encode_summary_msg(5, summary));
  const auto msg = net::decode_summary(frame);
  EXPECT_EQ(msg.client_id, 5u);
  const auto back = stats::decode_response_summary(msg);
  EXPECT_EQ(as_vector(back.label_counts.counts()),
            as_vector(summary.label_counts.counts()));
}

TEST(SummaryCodec, MalformedMessagesThrow) {
  const auto dataset = tiny_dataset();
  const auto response = stats::encode_summary_msg(
      0, stats::summarize_response(dataset));
  // Kind mismatch.
  net::SummaryMsg conditional = response;
  conditional.kind = static_cast<std::uint8_t>(stats::SummaryKind::Conditional);
  EXPECT_THROW(stats::decode_response_summary(conditional), net::WireError);
  // Empty tables.
  net::SummaryMsg empty = response;
  empty.tables.clear();
  EXPECT_THROW(stats::decode_response_summary(empty), net::WireError);
  // A count no honest client sends: it would make every Hellinger distance
  // to this client NaN.
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              -1.0}) {
    net::SummaryMsg poisoned = response;
    poisoned.tables.front()[1] = poison;
    EXPECT_THROW(stats::decode_response_summary(poisoned), net::WireError)
        << poison;
  }
}

// ---------------------------------------------------------------------------
// Checkpoints (frame-format files)

nn::Sequential tiny_model(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(6, 3, rng));
  return model;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

TEST(Checkpoint, RoundTripsAsWireFrame) {
  const auto model = tiny_model(11);
  const std::string path = temp_path("ckpt_roundtrip.bin");
  nn::save_parameters(model, path);

  // The file IS one wire frame of type Checkpoint.
  const auto bytes = read_file(path);
  net::Frame frame;
  ASSERT_EQ(net::decode_frame(bytes, &frame), net::FrameStatus::Ok);
  EXPECT_EQ(frame.type, net::MessageType::Checkpoint);

  EXPECT_EQ(nn::load_parameters(path), model.get_parameters());
}

TEST(Checkpoint, TruncatedFileFailsLoudly) {
  const auto model = tiny_model(12);
  const std::string path = temp_path("ckpt_truncated.bin");
  nn::save_parameters(model, path);
  auto bytes = read_file(path);
  bytes.resize(bytes.size() - 5);
  write_file(path, bytes);
  try {
    nn::load_parameters(path);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Checkpoint, CorruptPayloadFailsCrc) {
  const auto model = tiny_model(13);
  const std::string path = temp_path("ckpt_corrupt.bin");
  nn::save_parameters(model, path);
  auto bytes = read_file(path);
  bytes[net::kFrameHeaderBytes + 9] ^= 0x40;  // flip one parameter bit
  write_file(path, bytes);
  try {
    nn::load_parameters(path);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(Checkpoint, GarbageFileIsNotACheckpoint) {
  const std::string path = temp_path("ckpt_garbage.bin");
  write_file(path, {'n', 'o', 't', ' ', 'a', ' ', 'f', 'r', 'a', 'm', 'e'});
  try {
    nn::load_parameters(path);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a HACCS checkpoint"),
              std::string::npos);
  }
}

TEST(Checkpoint, LegacyV1FilesAreRefused) {
  // The retired pre-frame format: "HCCS", u32 version, u64 count, floats.
  const std::vector<float> params = {0.5f, -1.25f, 3.0f};
  std::vector<std::uint8_t> bytes = {'H', 'C', 'C', 'S', 1, 0, 0, 0};
  const std::uint64_t count = params.size();
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&count);
  bytes.insert(bytes.end(), cp, cp + sizeof(count));
  const auto* pp = reinterpret_cast<const std::uint8_t*>(params.data());
  bytes.insert(bytes.end(), pp, pp + params.size() * sizeof(float));
  const std::string path = temp_path("ckpt_legacy.bin");
  write_file(path, bytes);
  try {
    nn::load_parameters(path);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a HACCS checkpoint"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Golden frame bytes: the length and an FNV-1a digest of one fixed instance
// of each message family, recorded from the byte-at-a-time codec. A round
// trip cannot catch a codec that changes the bytes the same way on both
// ends; these pins can, so any drift in any byte on the wire fails here.
// No payload below is a multiple of 16 bytes long, so each one also runs
// the sliced CRC's bytewise tail.

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

void expect_golden(const char* what, const std::vector<std::uint8_t>& bytes,
                   std::size_t length, std::uint64_t digest) {
  EXPECT_EQ(bytes.size(), length) << what;
  EXPECT_EQ(fnv1a64(bytes), digest)
      << what << ": digest 0x" << std::hex << fnv1a64(bytes);
}

/// A sign-mixed ramp with NaN, -NaN, +/-Inf and -0.0 at fixed positions:
/// the codec must carry each bit pattern unmodified.
std::vector<float> golden_floats(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (static_cast<float>(i % 97) - 48.0f) * 0.03125f +
           static_cast<float>(i) * 1e-3f;
  }
  v[1] = kNaN;
  v[2] = kInf;
  v[3] = -0.0f;
  v[n / 2] = -kInf;
  v[n - 1] = -kNaN;
  return v;
}

net::TrainJobMsg golden_train_job() {
  net::TrainJobMsg msg;
  msg.epoch = 41;
  msg.client_id = 1234;
  msg.rng_seed = 0x9E3779B97F4A7C15ull;
  msg.recipe.algorithm = 1;
  msg.recipe.fedprox_mu = 0.01;
  msg.work_fraction = 0.75;
  msg.recipe.local_epochs = 2;
  msg.recipe.batch_size = 20;
  msg.recipe.learning_rate = 0.05;
  msg.recipe.momentum = 0.9;
  msg.recipe.weight_decay = -0.0;
  msg.recipe.compression_kind = 2;
  msg.recipe.topk_fraction = 0.1;
  msg.recipe.error_feedback = 1;
  msg.params = golden_floats(4099);
  return msg;
}

net::ClientUpdateMsg golden_update_header() {
  net::ClientUpdateMsg msg;
  msg.epoch = 41;
  msg.client_id = 1234;
  msg.average_loss = std::numeric_limits<double>::infinity();
  msg.final_loss = -0.0;
  msg.batches = 9;
  msg.sample_count = 180;
  return msg;
}

TEST(Frame, GoldenTrainJobBytes) {
  auto msg = golden_train_job();
  expect_golden("untraced TrainJob",
                net::encode_frame(net::encode_train_job(msg)), 16507,
                0x6DFC79B2D3A0AF03ull);
  msg.trace = {0xFEEDFACECAFEBEEFull, 77, 41};
  expect_golden("traced TrainJob",
                net::encode_frame(net::encode_train_job(msg)), 16531,
                0x424274054A0FFA9Aull);
}

TEST(Frame, GoldenClientUpdateBytesForEveryKind) {
  auto dense = golden_update_header();
  dense.update.kind = net::UpdateKind::Dense;
  dense.update.dense = golden_floats(1027);
  dense.update.size = dense.update.dense.size();
  expect_golden("Dense update",
                net::encode_frame(net::encode_client_update(dense)), 4185,
                0xBAAE757161E22504ull);

  auto topk = golden_update_header();
  topk.update.kind = net::UpdateKind::SparseTopK;
  topk.update.size = 1027;
  topk.update.values = golden_floats(103);
  for (std::uint32_t i = 0; i < 103; ++i) {
    topk.update.indices.push_back(i * 9 + 5);
  }
  topk.trace = {0xFEEDFACECAFEBEEFull, 77, 41};
  expect_golden("TopK update",
                net::encode_frame(net::encode_client_update(topk)), 925,
                0xF7F65B80E086711Bull);

  auto int8 = golden_update_header();
  int8.update.kind = net::UpdateKind::Int8;
  int8.update.size = 1027;
  int8.update.lo = -0.0f;
  int8.update.step = kNaN;
  for (std::size_t i = 0; i < 1027; ++i) {
    int8.update.codes.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  }
  expect_golden("Int8 update",
                net::encode_frame(net::encode_client_update(int8)), 1112,
                0x802CCAB622BA1226ull);
}

TEST(Frame, GoldenSummaryBytes) {
  net::SummaryMsg summary;
  summary.client_id = 17;
  summary.kind = 2;
  summary.lo = -0.0;
  summary.hi = 255.0;
  summary.tables = {{0.25, 0.5, 0.25},
                    {},
                    {std::numeric_limits<double>::quiet_NaN(), 1e-300,
                     -std::numeric_limits<double>::infinity(), 3.0, 7.5}};
  summary.mass = {0.1, 0.0, 0.9};
  expect_golden("Summary", net::encode_frame(net::encode_summary(summary)),
                165, 0xC04355E9D1810473ull);
}

TEST(Frame, GoldenSubtreeRoundBytes) {
  net::SubtreeRoundMsg msg;
  msg.epoch = 41;
  msg.max_update_norm = 1e-300;
  msg.recipe = golden_train_job().recipe;
  msg.params = golden_floats(1027);
  msg.jobs = {{1234, 0x9E3779B97F4A7C15ull, 0.75},
              {4000000000u, ~0ull, -0.0},
              {0, 0, 1.0}};
  expect_golden("untraced SubtreeRound",
                net::encode_frame(net::encode_subtree_round(msg)), 4275,
                0xE5FEC39AD7731A47ull);
  msg.trace = {0xFEEDFACECAFEBEEFull, 77, 41};
  expect_golden("traced SubtreeRound",
                net::encode_frame(net::encode_subtree_round(msg)), 4299,
                0x72EF8D04F0B75491ull);
}

TEST(Checkpoint, GoldenFileBytes) {
  auto model = tiny_model(1);
  model.set_parameters(golden_floats(model.get_parameters().size()));
  const std::string path = temp_path("ckpt_golden.bin");
  nn::save_parameters(model, path);
  expect_golden("Checkpoint file", read_file(path), 108,
                0xC4DD6DBD9A00EC1Dull);
}

// ---------------------------------------------------------------------------
// Loopback transport

TEST(Loopback, FramesRoundTripBothDirections) {
  auto pair = net::make_loopback_pair();
  ASSERT_EQ(pair.a->send(shard_frame(1, 10)), net::TransportStatus::Ok);
  ASSERT_EQ(pair.b->send(shard_frame(2, 20)), net::TransportStatus::Ok);
  net::Frame out;
  ASSERT_EQ(pair.b->recv(&out, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(sender_of(out), 1u);
  ASSERT_EQ(pair.a->recv(&out, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(sender_of(out), 2u);
}

TEST(Loopback, RecvTimesOutOnEmptyQueue) {
  auto pair = net::make_loopback_pair();
  net::Frame out;
  EXPECT_EQ(pair.a->recv(&out, 0), net::TransportStatus::Timeout);
  EXPECT_EQ(pair.a->recv(&out, 20), net::TransportStatus::Timeout);
}

TEST(Loopback, InjectedCorruptionSurfacesAsCorruptAndIsCounted) {
  obs::set_metrics_enabled(true);
  const auto before = net::NetMetrics::get().frames_corrupt.value();
  net::LoopbackOptions options;
  options.corrupt_every_n_b = 2;  // every 2nd frame from the worker side
  auto pair = net::make_loopback_pair(options);
  int ok = 0, corrupt = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(pair.b->send(shard_frame(9, i)), net::TransportStatus::Ok);
    net::Frame out;
    const auto status = pair.a->recv(&out, 1000);
    if (status == net::TransportStatus::Ok) ++ok;
    if (status == net::TransportStatus::Corrupt) ++corrupt;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(corrupt, 3);
  EXPECT_EQ(net::NetMetrics::get().frames_corrupt.value() - before, 3u);
  obs::set_metrics_enabled(false);
}

TEST(Loopback, CloseDrainsBufferedFramesThenReportsClosed) {
  auto pair = net::make_loopback_pair();
  ASSERT_EQ(pair.b->send(shard_frame(5, 1)), net::TransportStatus::Ok);
  pair.b->close();
  net::Frame out;
  // The frame sent before close still arrives; then the channel is dead.
  EXPECT_EQ(pair.a->recv(&out, 1000), net::TransportStatus::Ok);
  EXPECT_EQ(pair.a->recv(&out, 1000), net::TransportStatus::Closed);
  EXPECT_EQ(pair.a->send(shard_frame(5, 2)), net::TransportStatus::Closed);
}

// ---------------------------------------------------------------------------
// TCP transport

TEST(Tcp, LocalhostRoundTripIncludingLargeFrames) {
  net::TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::unique_ptr<net::Transport> server;
  std::thread acceptor([&] { server = listener.accept(5000); });
  net::TcpConnectOptions options;
  options.io_timeout_ms = 5000;
  auto client = net::connect_tcp("127.0.0.1", listener.port(), options);
  acceptor.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  // Small control frame one way...
  ASSERT_EQ(client->send(net::encode_hello({4, 2})), net::TransportStatus::Ok);
  net::Frame out;
  ASSERT_EQ(server->recv(&out, 5000), net::TransportStatus::Ok);
  EXPECT_EQ(net::decode_hello(out).worker_id, 4u);

  // ...and a parameter-sized frame the other way, which will span many
  // socket segments and exercise the incremental reassembly.
  net::TrainJobMsg job;
  job.params = ramp(200000);  // ~800 KB
  ASSERT_EQ(server->send(net::encode_train_job(job), 5000),
            net::TransportStatus::Ok);
  ASSERT_EQ(client->recv(&out, 5000), net::TransportStatus::Ok);
  const auto back = net::decode_train_job(out);
  ASSERT_EQ(back.params.size(), job.params.size());
  EXPECT_EQ(back.params, job.params);
}

// A recv() Timeout with half a frame in hand keeps that half: the frame
// completes on a later recv().
TEST(Tcp, PartlyArrivedFrameSurvivesARecvTimeout) {
  net::TcpListener listener(0);
  std::unique_ptr<net::Transport> server;
  std::thread acceptor([&] { server = listener.accept(5000); });
  auto client = net::connect_tcp("127.0.0.1", listener.port());
  acceptor.join();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const std::vector<std::uint8_t> bytes =
      net::encode_frame(net::encode_hello({4, 2}));
  const std::span<const std::uint8_t> all(bytes);
  const std::size_t half = bytes.size() / 2;
  net::Frame out;
  EXPECT_EQ(server->recv(&out, 20), net::TransportStatus::Timeout);
  ASSERT_EQ(client->send_raw(all.first(half)), net::TransportStatus::Ok);
  EXPECT_EQ(server->recv(&out, 50), net::TransportStatus::Timeout);
  ASSERT_EQ(client->send_raw(all.subspan(half)), net::TransportStatus::Ok);
  ASSERT_EQ(server->recv(&out, 5000), net::TransportStatus::Ok);
  EXPECT_EQ(net::decode_hello(out).worker_id, 4u);
}

TEST(Tcp, AcceptTimesOutWithoutAConnection) {
  net::TcpListener listener(0);
  EXPECT_EQ(listener.accept(50), nullptr);
}

TEST(Tcp, ConnectToADeadPortFailsInOneAttempt) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  std::uint16_t dead_port;
  {
    net::TcpListener listener(0);
    dead_port = listener.port();
  }
  // A refused loopback connect fails at once; retrying is the caller's job
  // (connect_with_backoff), so no backoff sleep may hide in here.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(net::connect_tcp("127.0.0.1", dead_port), nullptr);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

// ---------------------------------------------------------------------------
// Protocol driver: dispatcher failure mapping

TEST(TransportDispatcher, RecvTimeoutSurfacesAsTimeoutFailure) {
  // One transport, nobody serving the other end: the send lands in the
  // queue, the collect phase times out, the job fails as Timeout — in the
  // job's slot, which is not its index when the engine skipped a crashed
  // client's slot.
  auto pair = net::make_loopback_pair();
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 30;
  fl::TransportDispatcher dispatcher({pair.a.get()}, config);

  fl::TrainJobSpec job;
  job.slot = 1;
  job.client_id = 3;
  std::vector<fl::TrainJobSpec> jobs = {job};
  std::vector<float> global = {0.0f, 1.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  outcomes[0].failure = fl::FailureKind::CorruptUpdate;
  dispatcher.execute(jobs, global, outcomes);
  EXPECT_FALSE(outcomes[1].delivered);
  EXPECT_EQ(outcomes[1].failure, fl::FailureKind::Timeout);
  EXPECT_EQ(outcomes[0].failure, fl::FailureKind::CorruptUpdate);  // untouched
}

// recv_timeout_ms is one budget for the whole round's collection, not a
// per-frame wait: two silent workers cost one budget, not two.
TEST(TransportDispatcher, RecvTimeoutIsOneWholeRoundBudget) {
  auto first = net::make_loopback_pair();
  auto second = net::make_loopback_pair();
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 200;
  fl::TransportDispatcher dispatcher({first.a.get(), second.a.get()}, config);

  std::vector<fl::TrainJobSpec> jobs(2);
  jobs[1].slot = 1;
  jobs[1].client_id = 1;
  std::vector<float> global = {0.0f};
  std::vector<fl::TrainOutcome> outcomes(2);
  const auto start = std::chrono::steady_clock::now();
  dispatcher.execute(jobs, global, outcomes);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 200);
  EXPECT_LT(elapsed_ms, 380);  // a per-frame wait would take 2 x 200 ms
  for (const auto& out : outcomes) {
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(out.failure, fl::FailureKind::Timeout);
  }
}

TEST(TransportDispatcher, ClosedTransportSurfacesAsCrash) {
  auto pair = net::make_loopback_pair();
  pair.b->close();
  fl::TransportDispatcherConfig config;
  config.recv_timeout_ms = 1000;
  fl::TransportDispatcher dispatcher({pair.a.get()}, config);

  fl::TrainJobSpec job;
  std::vector<fl::TrainJobSpec> jobs = {job};
  std::vector<float> global = {0.0f};
  std::vector<fl::TrainOutcome> outcomes(1);
  dispatcher.execute(jobs, global, outcomes);
  EXPECT_FALSE(outcomes[0].delivered);
  EXPECT_EQ(outcomes[0].failure, fl::FailureKind::Crash);
}

// ---------------------------------------------------------------------------
// Engine over transports

data::FederatedDataset make_fed(std::size_t clients = 10) {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(6);
  cfg.height = 10;
  cfg.width = 10;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = clients;
  pcfg.min_samples = 40;
  pcfg.max_samples = 80;
  pcfg.test_samples = 12;
  Rng rng(19);
  return data::partition_majority_label(gen, pcfg, rng);
}

fl::EngineConfig make_engine(std::size_t rounds = 6) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 3;
  cfg.eval_every = 3;
  cfg.local.sgd.learning_rate = 0.08;
  cfg.seed = 23;
  return cfg;
}

fl::TransportDispatcherConfig dispatch_config_for(
    const fl::EngineConfig& engine) {
  fl::TransportDispatcherConfig config;
  config.work.local = engine.local;
  config.work.fedprox = engine.algorithm == fl::LocalAlgorithm::FedProx;
  config.work.fedprox_mu = engine.fedprox_mu;
  config.work.compression = engine.compression;
  config.recv_timeout_ms = 60000;
  return config;
}

fl::TrainingHistory run_direct(const data::FederatedDataset& fed,
                               const fl::EngineConfig& engine) {
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  return trainer.run(selector);
}

fl::TrainingHistory run_loopback(const data::FederatedDataset& fed,
                                 fl::EngineConfig engine,
                                 std::size_t num_workers) {
  fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99),
                              num_workers);
  fl::TransportDispatcher dispatcher(cluster.server_transports(),
                                     dispatch_config_for(engine));
  engine.dispatcher = &dispatcher;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  return trainer.run(selector);
}

void expect_histories_bit_identical(const fl::TrainingHistory& direct,
                                    const fl::TrainingHistory& transported) {
  ASSERT_EQ(direct.records().size(), transported.records().size());
  for (std::size_t i = 0; i < direct.records().size(); ++i) {
    // Byte-equal structured round events pin EVERY field — accuracies and
    // losses to the last bit, selections, and the uplink/downlink byte
    // accounting that must price identically in both modes.
    EXPECT_EQ(fl::round_event_json("sync", direct.records()[i]),
              fl::round_event_json("sync", transported.records()[i]))
        << "round " << i;
  }
}

TEST(EngineOverTransport, LoopbackRunIsBitIdenticalToDirect) {
  const auto fed = make_fed();
  const auto engine = make_engine();
  const auto direct = run_direct(fed, engine);
  const auto transported = run_loopback(fed, engine, 2);
  expect_histories_bit_identical(direct, transported);
  EXPECT_GT(direct.total_uplink_bytes(), 0u);
  EXPECT_GT(direct.total_downlink_bytes(), 0u);
}

TEST(EngineOverTransport, LoopbackBitIdentityHoldsUnderCompression) {
  // Compressed kinds ship the delta (not the updated parameters), so this
  // pins the global + to_dense() reconstruction path and the per-client
  // residual bookkeeping that lives server-side vs worker-side.
  const auto fed = make_fed();
  auto engine = make_engine();
  engine.compression.kind = fl::CompressionKind::TopK;
  engine.compression.topk_fraction = 0.2;
  const auto direct = run_direct(fed, engine);
  const auto transported = run_loopback(fed, engine, 3);
  expect_histories_bit_identical(direct, transported);
}

TEST(EngineOverTransport, ByteAccountingMatchesFramePricing) {
  const auto fed = make_fed();
  auto engine = make_engine(4);
  engine.compression.kind = fl::CompressionKind::Int8;
  const auto history = run_direct(fed, engine);
  const std::size_t n = core::default_model_factory(fed, 99)()
                            .get_parameters().size();
  for (const auto& r : history.records()) {
    EXPECT_EQ(r.downlink_bytes,
              r.dispatched * fl::train_job_frame_bytes(n));
    // Clean run: every dispatched client's update arrives.
    EXPECT_EQ(r.uplink_bytes,
              r.dispatched * fl::update_frame_bytes(n, engine.compression));
  }
}

/// Random selection plus a log of every report_failure call.
class RecordingSelector final : public fl::ClientSelector {
 public:
  std::vector<std::size_t> select(
      std::size_t k, const std::vector<fl::ClientRuntimeInfo>& clients,
      std::size_t epoch, Rng& rng) override {
    return inner_.select(k, clients, epoch, rng);
  }
  void report_failure(std::size_t /*client_id*/, std::size_t /*epoch*/,
                      fl::FailureKind kind) override {
    failures.push_back(kind);
  }
  std::string name() const override { return "Recording"; }

  std::vector<fl::FailureKind> failures;

 private:
  select::RandomSelector inner_;
};

TEST(EngineOverTransport, CorruptFramesAreSurvivedAndReported) {
  obs::set_metrics_enabled(true);
  const auto before = net::NetMetrics::get().frames_corrupt.value();

  const auto fed = make_fed();
  auto engine = make_engine(8);
  engine.overcommit = 0.5;  // over-select so damaged rounds still aggregate
  net::LoopbackOptions options;
  options.corrupt_every_n_b = 4;  // every 4th worker frame arrives damaged

  fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99), 1,
                              options);
  fl::TransportDispatcher dispatcher(cluster.server_transports(),
                                     dispatch_config_for(engine));
  engine.dispatcher = &dispatcher;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  RecordingSelector selector;
  const auto history = trainer.run(selector);

  // The run completes every round despite the wire damage...
  ASSERT_EQ(history.records().size(), 8u);
  // ...the damage is charged as rejected (wasted) work...
  std::size_t rejected = 0;
  for (const auto& r : history.records()) rejected += r.rejected.size();
  EXPECT_GT(rejected, 0u);
  // ...the selector heard about each failure as CorruptUpdate...
  std::size_t corrupt_reports = 0;
  for (auto kind : selector.failures) {
    if (kind == fl::FailureKind::CorruptUpdate) ++corrupt_reports;
  }
  EXPECT_EQ(corrupt_reports, rejected);
  // ...and the wire telemetry counted the damaged frames.
  EXPECT_GE(net::NetMetrics::get().frames_corrupt.value() - before, rejected);
  obs::set_metrics_enabled(false);
}

TEST(EngineOverTransport, WorkerLoopsServeEveryDispatchedJob) {
  const auto fed = make_fed();
  auto engine = make_engine(5);
  fl::LoopbackCluster cluster(fed, core::default_model_factory(fed, 99), 2);
  fl::TransportDispatcher dispatcher(cluster.server_transports(),
                                     dispatch_config_for(engine));
  engine.dispatcher = &dispatcher;
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               engine);
  select::RandomSelector selector;
  const auto history = trainer.run(selector);
  cluster.shutdown();
  EXPECT_EQ(cluster.jobs_served(0) + cluster.jobs_served(1),
            history.total_dispatched());
}

}  // namespace
}  // namespace haccs
