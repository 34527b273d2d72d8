// Tests for the observability subsystem (DESIGN.md §5e): span nesting and
// thread attribution, counter/histogram correctness under concurrency, JSON
// and JSONL well-formedness, the zero-allocation disabled path, and the
// traced-vs-untraced bit-identity guarantee on the training engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/threadpool.hpp"
#include "src/core/haccs_system.hpp"
#include "src/fl/engine.hpp"
#include "src/obs/events.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/select/random_selector.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: replaces global operator new for the whole test binary
// so the disabled-path test can assert "no allocations". Forwarding to
// malloc/free keeps ASan/TSan interception intact.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace haccs {
namespace {

/// Every obs test starts and ends with all pillars off and global state
/// zeroed, so tests cannot leak telemetry into each other (or into the rest
/// of the suite, which asserts exact RNG-driven values).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_obs(); }
  void TearDown() override { reset_obs(); }

  static void reset_obs() {
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    obs::RunEventLog::global().close();
    obs::TraceBuffer::global().clear();
    obs::Registry::global().reset();
    obs::clear_round_context();
    obs::FlightRecorder::global().disable();
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "obs_test_" + name;
  }
};

// ---------------------------------------------------------------------------
// JSON helpers

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST_F(ObsTest, JsonNumberRejectsNonFinite) {
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST_F(ObsTest, JsonObjectPreservesOrderAndTypes) {
  obs::JsonObject o;
  o.field("s", "x\"y")
      .field("d", 2.5)
      .field("b", true)
      .field("i", -3)
      .field("u", std::size_t{7})
      .field_raw("a", obs::json_array({1, 2}));
  EXPECT_EQ(o.str(),
            "{\"s\":\"x\\\"y\",\"d\":2.5,\"b\":true,\"i\":-3,\"u\":7,"
            "\"a\":[1,2]}");
}

// ---------------------------------------------------------------------------
// Trace spans

TEST_F(ObsTest, SpanNestingAndThreadAttribution) {
  obs::set_trace_enabled(true);
  const std::uint32_t main_tid = obs::thread_id();
  std::uint32_t worker_tid = 0;
  {
    obs::Span outer("outer", "test");
    {
      obs::Span inner("inner", "test");
    }
    std::thread t([&] {
      obs::set_thread_name("obs-test-worker");
      worker_tid = obs::thread_id();
      obs::Span w("worker_span", "test");
    });
    t.join();
  }
  obs::set_trace_enabled(false);

  const auto events = obs::TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* worker = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
    if (std::string(e.name) == "worker_span") worker = &e;
  }
  ASSERT_TRUE(outer && inner && worker);
  // Nesting: the outer span strictly encloses the inner one.
  EXPECT_LE(outer->ts_ns, inner->ts_ns);
  EXPECT_GE(outer->ts_ns + outer->dur_ns, inner->ts_ns + inner->dur_ns);
  // Thread attribution: spans carry the id of the thread that opened them.
  EXPECT_EQ(outer->tid, main_tid);
  EXPECT_EQ(inner->tid, main_tid);
  EXPECT_NE(worker->tid, main_tid);
  EXPECT_EQ(worker->tid, worker_tid);
  EXPECT_EQ(obs::thread_name(worker_tid), "obs-test-worker");
}

TEST_F(ObsTest, InstantEventsHaveZeroDuration) {
  obs::set_trace_enabled(true);
  obs::instant("marker", "test");
  obs::set_trace_enabled(false);
  const auto events = obs::TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].dur_ns, 0u);
  EXPECT_STREQ(events[0].name, "marker");
}

TEST_F(ObsTest, ChromeJsonStructure) {
  obs::set_trace_enabled(true);
  {
    obs::Span s("span_a", "test");
  }
  obs::instant("mark_b", "test");
  obs::set_trace_enabled(false);
  const std::string json = obs::TraceBuffer::global().to_chrome_json();
  // Structural spot-checks; check.sh feeds a real run through a JSON parser.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread names
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"name\":\"span_a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mark_b\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics

TEST_F(ObsTest, CounterConcurrentIncrements) {
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::Registry::global().counter("obs_test_concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST_F(ObsTest, HistogramBucketsCountAndSum) {
  obs::set_metrics_enabled(true);
  obs::Histogram& h =
      obs::Registry::global().histogram("obs_test_hist", {1.0, 10.0, 100.0});
  // One per bucket: <=1, <=10, <=100, overflow.
  h.observe(0.5);
  h.observe(10.0);  // inclusive upper edge lands in the <=10 bucket
  h.observe(42.0);
  h.observe(1000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 10.0 + 42.0 + 1000.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

TEST_F(ObsTest, HistogramConcurrentObserves) {
  obs::set_metrics_enabled(true);
  obs::Histogram& h =
      obs::Registry::global().histogram("obs_test_hist_mt", {5.0});
  constexpr int kThreads = 8;
  constexpr int kObs = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObs; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t n = static_cast<std::uint64_t>(kThreads) * kObs;
  EXPECT_EQ(h.count(), n);
  // Sum is CAS-accumulated: every observation must land exactly once.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n));
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{n, 0}));
}

TEST_F(ObsTest, RegistrySnapshotIsValidStructure) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().counter("obs_test_c").inc(3);
  obs::Registry::global().gauge("obs_test_g").set(2.5);
  obs::Registry::global().histogram("obs_test_h", {1.0}).observe(0.5);
  const std::string json = obs::Registry::global().to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_c\":3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_g\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_h\":{\"bounds\":[1],"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled path

TEST_F(ObsTest, DisabledPathMutatesNothing) {
  // Flags are off (fixture guarantees it): every probe must be a no-op.
  obs::Counter& c = obs::Registry::global().counter("obs_test_frozen");
  obs::Gauge& g = obs::Registry::global().gauge("obs_test_frozen_g");
  obs::Histogram& h =
      obs::Registry::global().histogram("obs_test_frozen_h", {1.0});
  c.inc(100);
  g.set(9.0);
  h.observe(0.5);
  {
    obs::Span s("frozen_span", "test");
  }
  obs::instant("frozen_instant", "test");
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(obs::TraceBuffer::global().size(), 0u);
}

TEST_F(ObsTest, DisabledPathDoesNotAllocate) {
  // Resolve instruments (registration allocates) before measuring.
  obs::Counter& c = obs::Registry::global().counter("obs_test_noalloc");
  obs::Histogram& h =
      obs::Registry::global().histogram("obs_test_noalloc_h", {1.0});
  obs::thread_id();  // thread registration is also one-time
  const std::uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("noalloc_span", "test");
    obs::instant("noalloc_instant", "test");
    c.inc();
    h.observe(1.0);
    obs::StopWatch watch;
    (void)watch.lap_ms();
  }
  EXPECT_EQ(g_alloc_count.load(), before);
}

TEST_F(ObsTest, StopWatchInactiveWhenDisabled) {
  obs::StopWatch off;
  EXPECT_EQ(off.lap_ms(), 0.0);
  obs::set_metrics_enabled(true);
  obs::StopWatch on;
  for (volatile int i = 0; i < 10000; ++i) {
  }
  EXPECT_GT(on.lap_ms(), 0.0);
}

// ---------------------------------------------------------------------------
// Thread pool integration (explicit pool: the global one degrades to inline
// mode on single-core hosts, which would leave these probes unexercised)

TEST_F(ObsTest, ThreadPoolMetricsAndWorkerLanes) {
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const std::uint64_t tasks_before =
      obs::Registry::global().counter("threadpool_tasks_total").value();
  constexpr std::size_t kTasks = 64;
  {
    ThreadPool pool(2);
    std::atomic<std::size_t> ran{0};
    parallel_for(pool, 0, kTasks, [&](std::size_t i) {
      obs::Span span("pool_task", "test");
      span.set_arg("i", static_cast<std::int64_t>(i));
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), kTasks);
  }
  obs::set_trace_enabled(false);
  // submit() counted every enqueued chunk and tracked queue depth.
  EXPECT_GT(obs::Registry::global().counter("threadpool_tasks_total").value(),
            tasks_before);
  // Two workers plus the caller make three chunks of ceil(64 / 3) = 22
  // indices. The caller runs chunk 0 on the main lane; the other chunks run
  // on named worker threads.
  constexpr std::int64_t kCallerChunk = 22;
  const std::uint32_t main_tid = obs::thread_id();
  std::size_t on_main = 0, on_workers = 0;
  for (const auto& e : obs::TraceBuffer::global().snapshot()) {
    if (std::string(e.name) != "pool_task") continue;
    ASSERT_STREQ(e.arg_name, "i");
    if (e.arg_value < kCallerChunk) {
      EXPECT_EQ(e.tid, main_tid) << "index " << e.arg_value;
      ++on_main;
    } else {
      EXPECT_NE(e.tid, main_tid) << "index " << e.arg_value;
      EXPECT_EQ(obs::thread_name(e.tid).rfind("worker-", 0), 0u)
          << "index " << e.arg_value;
      ++on_workers;
    }
  }
  EXPECT_EQ(on_main, static_cast<std::size_t>(kCallerChunk));
  EXPECT_EQ(on_workers, kTasks - kCallerChunk);
}

// ---------------------------------------------------------------------------
// Engine integration: round events, rounds_total, bit-identity

data::FederatedDataset obs_fed() {
  data::SyntheticImageConfig cfg = data::SyntheticImageConfig::femnist_like(10);
  cfg.height = 12;
  cfg.width = 12;
  cfg.noise_stddev = 0.6;
  data::SyntheticImageGenerator gen(cfg);
  data::PartitionConfig pcfg;
  pcfg.num_clients = 10;
  pcfg.min_samples = 40;
  pcfg.max_samples = 80;
  pcfg.test_samples = 16;
  Rng rng(7);
  return data::partition_majority_label(gen, pcfg, rng);
}

fl::EngineConfig obs_engine(std::size_t rounds) {
  fl::EngineConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = 4;
  cfg.eval_every = 3;
  cfg.seed = 13;
  cfg.local.sgd.learning_rate = 0.08;
  return cfg;
}

fl::TrainingHistory run_once(const data::FederatedDataset& fed,
                             std::size_t rounds) {
  fl::FederatedTrainer trainer(fed, core::default_model_factory(fed, 99),
                               obs_engine(rounds));
  select::RandomSelector selector;
  return trainer.run(selector);
}

TEST_F(ObsTest, EngineEmitsOneEventPerRoundAndCountsRounds) {
  const auto fed = obs_fed();
  constexpr std::size_t kRounds = 6;
  const std::string path = temp_path("events.jsonl");
  obs::set_metrics_enabled(true);
  ASSERT_TRUE(obs::RunEventLog::global().open(path));
  run_once(fed, kRounds);
  obs::RunEventLog::global().close();
  obs::set_metrics_enabled(false);

  EXPECT_EQ(obs::Registry::global().counter("rounds_total").value(), kRounds);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    // Each line is one self-contained JSON object for one round.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":\"round\""), std::string::npos);
    EXPECT_NE(line.find("\"engine\":\"sync\""), std::string::npos);
    EXPECT_NE(line.find("\"phase_wall_ms\""), std::string::npos);
    const std::string epoch_field =
        "\"epoch\":" + std::to_string(lines) + ",";
    EXPECT_NE(line.find(epoch_field), std::string::npos) << line;
    ++lines;
  }
  EXPECT_EQ(lines, kRounds);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TracedRunMatchesUntraced) {
  const auto fed = obs_fed();
  constexpr std::size_t kRounds = 8;

  // Baseline: everything off (the fixture guarantees it).
  const auto plain = run_once(fed, kRounds);

  // Fully telemetered run: all three pillars live.
  const std::string events_path = temp_path("identity.jsonl");
  obs::set_trace_enabled(true);
  obs::set_metrics_enabled(true);
  ASSERT_TRUE(obs::RunEventLog::global().open(events_path));
  const auto traced = run_once(fed, kRounds);
  reset_obs();
  std::remove(events_path.c_str());

  // Telemetry never consumes RNG, so the run must be bit-identical: exact
  // double equality on purpose.
  ASSERT_EQ(plain.records().size(), traced.records().size());
  for (std::size_t i = 0; i < plain.records().size(); ++i) {
    const auto& a = plain.records()[i];
    const auto& b = traced.records()[i];
    EXPECT_EQ(a.sim_time_s, b.sim_time_s) << "round " << i;
    EXPECT_EQ(a.global_accuracy, b.global_accuracy) << "round " << i;
    EXPECT_EQ(a.global_loss, b.global_loss) << "round " << i;
    EXPECT_EQ(a.selected, b.selected) << "round " << i;
  }
}

// ---------------------------------------------------------------------------
// Cross-process correlation (§5i): span ids, round context, merged export

TEST_F(ObsTest, SpanIdsFormParentChain) {
  obs::set_trace_enabled(true);
  EXPECT_EQ(obs::current_span_id(), 0u);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    obs::Span outer("chain_outer", "test");
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(obs::current_span_id(), outer_id);
    {
      obs::Span inner("chain_inner", "test");
      inner_id = inner.id();
      EXPECT_NE(inner_id, 0u);
      EXPECT_NE(inner_id, outer_id);
      EXPECT_EQ(obs::current_span_id(), inner_id);
    }
    EXPECT_EQ(obs::current_span_id(), outer_id);
  }
  EXPECT_EQ(obs::current_span_id(), 0u);
  obs::set_trace_enabled(false);

  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const auto events = obs::TraceBuffer::global().snapshot();
  for (const auto& e : events) {
    if (std::string(e.name) == "chain_outer") outer = &e;
    if (std::string(e.name) == "chain_inner") inner = &e;
  }
  ASSERT_TRUE(outer && inner);
  EXPECT_EQ(outer->span_id, outer_id);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->span_id, inner_id);
  EXPECT_EQ(inner->parent_id, outer_id);
}

TEST_F(ObsTest, RoundContextStampsRecordedSpans) {
  obs::set_trace_enabled(true);
  EXPECT_FALSE(obs::round_context().valid());
  obs::TraceContext ctx;
  ctx.trace_id = obs::process_trace_id();
  ctx.parent_span = 77;
  ctx.round = 5;
  obs::set_round_context(ctx);
  const obs::TraceContext seen = obs::round_context();
  EXPECT_TRUE(seen.valid());
  EXPECT_EQ(seen.trace_id, ctx.trace_id);
  EXPECT_EQ(seen.parent_span, 77u);
  EXPECT_EQ(seen.round, 5);
  {
    obs::Span s("ctx_span", "test");
  }
  obs::instant("ctx_mark", "test");
  obs::clear_round_context();
  EXPECT_FALSE(obs::round_context().valid());
  obs::set_trace_enabled(false);

  for (const auto& e : obs::TraceBuffer::global().snapshot()) {
    EXPECT_EQ(e.round, 5) << e.name;
    if (std::string(e.name) == "ctx_span") EXPECT_NE(e.span_id, 0u);
    if (std::string(e.name) == "ctx_mark") EXPECT_EQ(e.span_id, 0u);
  }
}

TEST_F(ObsTest, ProcessTraceIdIsStableAndNonzero) {
  const std::uint64_t id = obs::process_trace_id();
  EXPECT_NE(id, 0u);
  EXPECT_EQ(obs::process_trace_id(), id);
}

TEST_F(ObsTest, MergedChromeJsonPlacesWorkersOnOwnTracks) {
  obs::set_trace_enabled(true);
  {
    obs::Span s("round", "fl");
  }
  obs::set_trace_enabled(false);
  const auto server_events = obs::TraceBuffer::global().snapshot();
  ASSERT_EQ(server_events.size(), 1u);

  obs::WorkerTrack track;
  track.worker_id = 1;
  track.label = "worker-1";
  track.clock_offset_ns = 1000;
  obs::PortableTraceEvent ev;
  ev.name = "local_train";
  ev.category = "fl";
  ev.ts_ns = 500;
  ev.dur_ns = 200;
  ev.span_id = 42;
  ev.parent_id = server_events[0].span_id;
  ev.round = 0;
  track.events.push_back(ev);

  const std::string json = obs::merged_chrome_json(server_events, {track});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Server on pid 1, worker 1 on pid 3, both named.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"haccs_server\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-1\""), std::string::npos);
  // Span-id args survive for parent/child stitching across processes.
  EXPECT_NE(json.find("\"span\":42"), std::string::npos);
  EXPECT_NE(
      json.find("\"parent\":" + std::to_string(server_events[0].span_id)),
      std::string::npos);
  // The worker timestamp is shifted onto the server clock: 500 ns + 1000 ns
  // offset = 1.5 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
}

TEST_F(ObsTest, PrometheusExpositionFormat) {
  obs::set_metrics_enabled(true);
  obs::Registry::global().counter("obs_prom_c").inc(3);
  obs::Registry::global().gauge("obs_prom_g").set(2.5);
  obs::Histogram& h =
      obs::Registry::global().histogram("obs_prom_h", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  const std::string text = obs::Registry::global().to_prometheus();

  EXPECT_NE(text.find("# TYPE haccs_obs_prom_c counter\nhaccs_obs_prom_c 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE haccs_obs_prom_g gauge\nhaccs_obs_prom_g 2.5\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end with the +Inf catch-all.
  EXPECT_NE(text.find("haccs_obs_prom_h_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("haccs_obs_prom_h_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("haccs_obs_prom_h_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("haccs_obs_prom_h_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("haccs_obs_prom_h_count 3\n"), std::string::npos);
  // 0.0.4 text format: every line is "# ..." or "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_EQ(line.rfind("haccs_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST_F(ObsTest, FlightRecorderRingAndDump) {
  auto& fr = obs::FlightRecorder::global();
  fr.enable(::testing::TempDir(), /*max_rounds=*/4, /*max_log_lines=*/3);
  ASSERT_TRUE(fr.enabled());
  const std::string path = fr.path();
  EXPECT_NE(path.find("flight-"), std::string::npos);

  for (int i = 0; i < 6; ++i) {
    fr.record_round_event("{\"epoch\":" + std::to_string(i) + "}");
  }
  fr.record_log_line("alpha");
  fr.record_log_line("beta");
  fr.record_log_line("gamma");
  fr.record_log_line("delta");
  fr.note_quorum_degraded();  // dumps immediately with its own reason
  ASSERT_TRUE(fr.dump("unit-test"));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_EQ(doc.front(), '{');
  EXPECT_NE(doc.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(doc.find("\"degraded_rounds\":1"), std::string::npos);
  // Round ring of 4: epochs 2..5 retained, 0 and 1 evicted.
  EXPECT_EQ(doc.find("{\"epoch\":0}"), std::string::npos);
  EXPECT_EQ(doc.find("{\"epoch\":1}"), std::string::npos);
  EXPECT_NE(doc.find("{\"epoch\":2}"), std::string::npos);
  EXPECT_NE(doc.find("{\"epoch\":5}"), std::string::npos);
  // Log ring of 3: "alpha" evicted, the rest retained in order.
  EXPECT_EQ(doc.find("alpha"), std::string::npos);
  const std::size_t beta = doc.find("beta");
  const std::size_t delta = doc.find("delta");
  ASSERT_NE(beta, std::string::npos);
  ASSERT_NE(delta, std::string::npos);
  EXPECT_LT(beta, delta);
  // The metrics snapshot rides along.
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, FlightRecorderDisabledIsNoop) {
  auto& fr = obs::FlightRecorder::global();
  ASSERT_FALSE(fr.enabled());
  fr.record_round_event("{\"epoch\":0}");
  fr.record_log_line("nope");
  fr.note_quorum_degraded();
  EXPECT_FALSE(fr.dump("disabled"));
  EXPECT_TRUE(fr.path().empty());
}

TEST_F(ObsTest, FlightRecorderCrashDumpWritesStableBuffer) {
  auto& fr = obs::FlightRecorder::global();
  fr.enable(::testing::TempDir(), 8, 8);
  fr.record_round_event("{\"epoch\":41}");
  const std::string path = fr.path();
  // Simulate the signal path directly (raising a real SIGSEGV would kill
  // the test binary): only the pre-rendered stable buffer may be written.
  fr.crash_dump();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_NE(doc.find("\"reason\":\"crash\""), std::string::npos);
  EXPECT_NE(doc.find("{\"epoch\":41}"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace haccs
