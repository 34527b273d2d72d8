// haccs_bench — runs one benchmark workload and prints its metrics as JSON.
//
//   haccs_bench --workload=paper-femnist --seed=1 --seconds=20 --trace=0
//   haccs_bench --workload=serving-flat --seed=1 --selfcheck
//
// A measurement repeats cycles of the workload's episodes (one per derived
// seed) until the next cycle would overrun --seconds; every metric is the
// median over episodes. --trace=1 interleaves an untraced and a traced
// episode per seed: per-layer metrics come from the traced ones, and the
// tracing overhead is the gap between the two. --selfcheck instead runs a
// short episode with and without the probes and checks that the round
// events are byte-equal. benchmark/run.py is the user-facing entry point.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "benchmark/workloads.hpp"
#include "src/common/flags.hpp"
#include "src/obs/obs.hpp"
#include "src/tensor/ops.hpp"

namespace {

using namespace haccs;
using namespace haccs::benchmark;

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

using Metrics = std::map<std::string, double>;

/// Metrics a user of the system sees; measured on untraced episodes.
Metrics end_to_end_metrics(const EpisodeResult& e) {
  Metrics m;
  m["setup_s"] = e.setup_s;
  m["wall_tta_s"] = e.wall_tta_s;
  m["rounds_per_s"] = static_cast<double>(e.rounds) / e.run_s;
  m["updates_per_s"] = static_cast<double>(e.aggregated) / e.run_s;
  m["round_ms.p50"] = percentile(e.round_ms, 0.5);
  m["round_ms.p90"] = percentile(e.round_ms, 0.9);
  m["sim_tta_s"] = e.sim_tta_s;
  m["final_accuracy"] = e.final_accuracy;
  m["useful_share"] =
      static_cast<double>(e.aggregated) / static_cast<double>(e.dispatched);
  return m;
}

struct SelfTime {
  std::size_t calls = 0;
  double self_ms = 0.0;
  bool worker = false;  ///< on a worker thread, concurrent with the engine
};

/// Self time per span name: duration minus the part covered by children on
/// the same track (worker spans run concurrently and are not subtracted).
std::map<std::string, SelfTime> self_times_ms(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && (s.parent >> 48) == s.track) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
    }
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRecord& s : spans) {
    SelfTime& row = out[s.name];
    ++row.calls;
    row.self_ms +=
        static_cast<double>(s.end_ns - s.begin_ns) * 1e-6 - child_ms[s.id];
    row.worker = s.track != 0;
  }
  return out;
}

/// Spans that only group layers; their self time is unattributed.
bool is_container(const std::string& name) {
  return name == "workload" || name == "setup" || name == "run";
}

/// Per-layer metrics of one traced episode.
Metrics layer_metrics(const Workload& w, const EpisodeResult& e) {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, std::map<std::int64_t, double>> per_round;
  double workload_ms = 0.0;
  for (const SpanRecord& s : e.spans) {
    const double d = static_cast<double>(s.end_ns - s.begin_ns) * 1e-6;
    ms[s.name].push_back(d);
    if (s.round >= 0 && s.track == 0) per_round[s.name][s.round] += d;
    if (std::string(s.name) == "workload") workload_ms = d;
  }
  Metrics m;
  m["data.generate_ms"] = sum(ms["data.generate"]);
  m["stats.summaries_ms"] = sum(ms["stats.summaries"]);
  m["clustering.distance_matrix_ms"] = sum(ms["clustering.distance_matrix"]);
  m["clustering.optics_ms"] = sum(ms["clustering.optics"]);
  m["core.selector_init_ms"] = sum(ms["core.selector_init"]);
  m["sim.trainer_init_ms"] = sum(ms["sim.trainer_init"]);
  m["clustering.clusters"] = static_cast<double>(e.clusters);

  const auto& select = ms["core.select"];
  m["core.select_ms.p50"] = percentile(select, 0.5);
  m["core.select_ms.p90"] = percentile(select, 0.9);
  m["core.select_ms.sum"] = sum(select);
  double recluster = 0.0;
  const auto cadence = static_cast<std::int64_t>(w.recluster_every);
  for (const auto& [round, d] : per_round["core.select"]) {
    if (cadence > 0 && round > 0 && round % cadence == 0) recluster += d;
  }
  m["core.recluster_ms.sum"] = recluster;
  m["core.report_failure_calls"] = static_cast<double>(e.failure_reports);

  const auto& dispatch = ms["fl.dispatch"];
  m["fl.dispatch_ms.p50"] = percentile(dispatch, 0.5);
  m["fl.dispatch_ms.p90"] = percentile(dispatch, 0.9);
  m["fl.dispatch_ms.sum"] = sum(dispatch);

  // Engine residual: what the round spends outside select and dispatch
  // (validation, FedAvg, bookkeeping, and evaluation on eval rounds).
  std::vector<double> plain, eval;
  for (std::size_t r = 0; r < e.round_ms.size(); ++r) {
    const auto round = static_cast<std::int64_t>(r);
    const double residual = e.round_ms[r] - per_round["core.select"][round] -
                            per_round["fl.dispatch"][round];
    (e.eval_round[r] ? eval : plain).push_back(residual);
  }
  m["fl.engine_ms.p50"] = percentile(plain, 0.5);
  m["fl.eval_extra_ms.p50"] = percentile(eval, 0.5) - percentile(plain, 0.5);

  m["fl.dispatched"] = static_cast<double>(e.dispatched);
  m["fl.aggregated"] = static_cast<double>(e.aggregated);
  m["fl.crashed"] = static_cast<double>(e.crashed);
  m["fl.late"] = static_cast<double>(e.late);
  m["fl.rejected"] = static_cast<double>(e.rejected);

  m["net.send_ms.sum"] = sum(ms["net.send"]);
  m["net.sends"] = static_cast<double>(e.root_frames_sent);
  m["net.recv_wait_ms.sum"] = sum(ms["net.recv"]);
  m["net.recvs"] = static_cast<double>(e.root_frames_received);
  m["net.bytes_down"] = static_cast<double>(e.root_bytes_sent);
  m["net.bytes_up"] = static_cast<double>(e.root_bytes_received);
  m["net.worker_job_ms.p50"] = percentile(ms["net.worker_job"], 0.5);
  m["net.worker_job_ms.sum"] = sum(ms["net.worker_job"]);
  m["net.worker_idle_ms.sum"] = static_cast<double>(e.worker_idle_ns) * 1e-6;

  double unattributed = 0.0;
  for (const auto& [name, row] : self_times_ms(e.spans)) {
    if (is_container(name)) unattributed += row.self_ms;
  }
  m["obs.unattributed_pct"] =
      workload_ms > 0.0 ? 100.0 * unattributed / workload_ms : 0.0;
  return m;
}

/// Median of each metric over episodes.
Metrics median_metrics(const std::vector<Metrics>& per_episode) {
  std::map<std::string, std::vector<double>> columns;
  for (const Metrics& m : per_episode) {
    for (const auto& [name, value] : m) columns[name].push_back(value);
  }
  Metrics out;
  for (const auto& [name, values] : columns) {
    out[name] = percentile(values, 0.5);
  }
  return out;
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  /// Records a check; returns `ok` so callers can count failed episodes.
  bool expect(const std::string& name, bool ok, const std::string& detail) {
    for (Check& c : checks_) {
      if (c.name == name) {
        if (c.ok && !ok) c = {name, false, detail};
        return ok;
      }
    }
    checks_.push_back({name, ok, ok ? "" : detail});
    return ok;
  }
  bool all_ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }
  std::string json() const {
    std::string out = "[";
    for (const Check& c : checks_) {
      if (out.size() > 1) out += ',';
      obs::JsonObject o;
      o.field("name", c.name).field("ok", c.ok).field("detail", c.detail);
      out += o.str();
    }
    return out + "]";
  }

 private:
  std::vector<Check> checks_;
};

/// Cross-layer checks every episode must pass; a full-length episode must
/// also reach its accuracy targets. Returns false when any check failed.
bool check_episode(const Workload& w, const EpisodeResult& e, bool full_length,
                   Checks& checks) {
  bool ok = true;
  bool one_select = e.select_epochs.size() == e.rounds;
  for (std::size_t r = 0; one_select && r < e.rounds; ++r) {
    one_select = e.select_epochs[r] == r;
  }
  ok &= checks.expect("one_select_per_round", one_select,
                      std::to_string(e.select_epochs.size()) +
                          " select calls for " + std::to_string(e.rounds) +
                          " rounds");
  const std::size_t wasted = e.crashed + e.late + e.rejected;
  ok &= checks.expect("report_failure_equals_wasted",
                      e.failure_reports == wasted &&
                          e.dispatched == e.aggregated + wasted,
                      std::to_string(e.failure_reports) + " reports, " +
                          std::to_string(wasted) + " wasted");
  if (w.serving) {
    ok &= checks.expect(
        "wire_bytes_equal_history",
        e.root_bytes_sent == e.history_downlink_bytes &&
            e.root_bytes_received == e.history_uplink_bytes,
        "wire " + std::to_string(e.root_bytes_sent) + "/" +
            std::to_string(e.root_bytes_received) + " vs history " +
            std::to_string(e.history_downlink_bytes) + "/" +
            std::to_string(e.history_uplink_bytes));
  }
  ok &= checks.expect("preamble_stages_match_selector", e.stages_match_selector,
                      "separately timed stages clustered differently");
  if (!full_length) return ok;
  ok &= checks.expect("target_reached", std::isfinite(e.sim_tta_s),
                      "accuracy " + std::to_string(w.target_accuracy) +
                          " never reached");
  ok &= checks.expect("final_accuracy_floor",
                      e.final_accuracy >= w.accuracy_floor,
                      std::to_string(e.final_accuracy) + " < floor " +
                          std::to_string(w.accuracy_floor));
  return ok;
}

/// Chrome trace-event JSON of one traced episode (open in ui.perfetto.dev).
void write_chrome_trace(const std::string& path, const Workload& w,
                        const std::vector<SpanRecord>& spans) {
  std::uint64_t origin = UINT64_MAX;
  std::set<std::uint32_t> tracks;
  for (const SpanRecord& s : spans) {
    origin = std::min(origin, s.begin_ns);
    tracks.insert(s.track);
  }
  std::ofstream file(path);
  file << "{\"traceEvents\":[";
  bool first = true;
  for (std::uint32_t t : tracks) {
    file << (first ? "" : ",") << "{\"ph\":\"M\",\"name\":\"thread_name\","
         << "\"pid\":1,\"tid\":" << t << ",\"args\":{\"name\":\""
         << (t == 0 ? std::string("engine") : "worker-" + std::to_string(t - 1))
         << "\"}}";
    first = false;
  }
  for (const SpanRecord& s : spans) {
    obs::JsonObject args;
    args.field("span", s.id).field("parent", s.parent).field("round", s.round);
    obs::JsonObject event;
    event.field("name", s.name)
        .field("cat", w.name)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", s.track)
        .field("ts", static_cast<double>(s.begin_ns - origin) * 1e-3)
        .field("dur", static_cast<double>(s.end_ns - s.begin_ns) * 1e-3)
        .field_raw("args", args.str());
    file << ',' << event.str();
  }
  file << "]}\n";
  if (!file) throw std::runtime_error("cannot write trace file " + path);
}

std::string metrics_json(const Metrics& m) {
  obs::JsonObject o;
  for (const auto& [name, value] : m) o.field(name.c_str(), value);
  return o.str();
}

int selfcheck(const Workload& w, std::uint64_t seed) {
  // Long enough to cross two re-cluster epochs (cadence shortened to 10)
  // and the start of hostile-churn's targeted stragglers (round 20).
  EpisodeOptions base;
  base.seed = episode_seed(seed, 0);
  base.rounds = 21;
  base.recluster_every = w.recluster_every > 0 ? 10 : 0;

  EpisodeOptions plain = base;
  plain.probes = false;
  const EpisodeResult reference = run_episode(w, plain);

  EpisodeOptions probed = base;
  Tracer tracer(1 + kServingWorkers);
  probed.tracer = &tracer;
  const EpisodeResult traced = run_episode(w, probed);

  Checks checks;
  checks.expect("probes_transparent",
                reference.events == traced.events &&
                    reference.history_hash == traced.history_hash,
                "round events differ with the probes attached");
  if (w.serving) {
    EpisodeOptions local = plain;
    local.in_process = true;
    checks.expect("serving_equals_in_process",
                  run_episode(w, local).history_hash == reference.history_hash,
                  "serving history differs from the in-process history");
  }
  check_episode(w, traced, /*full_length=*/false, checks);
  obs::JsonObject o;
  o.field("workload", w.name)
      .field("seed", seed)
      .field("correct", checks.all_ok())
      .field_raw("checks", checks.json());
  std::printf("%s\n", o.str().c_str());
  return checks.all_ok() ? 0 : 1;
}

int measure(const Workload& w, std::uint64_t seed, double seconds, bool trace,
            const std::string& trace_file) {
  const std::uint64_t start = now_ns();
  std::vector<Metrics> e2e, layers;
  std::vector<double> untraced_run_s, traced_run_s;
  std::map<std::uint64_t, std::uint64_t> hash_of_seed;
  std::vector<SpanRecord> first_trace;
  double rss_mb = 0.0;
  Checks checks;
  std::size_t attempted = 0, failed = 0, cycles = 0;
  for (;;) {
    const std::uint64_t cycle_start = now_ns();
    for (std::size_t i = 0; i < w.episodes; ++i) {
      EpisodeOptions options;
      options.seed = episode_seed(seed, i);
      for (const bool traced : {false, true}) {
        if (traced && !trace) continue;
        Tracer tracer(1 + kServingWorkers);
        options.tracer = traced ? &tracer : nullptr;
        const EpisodeResult e = run_episode(w, options);
        attempted += e.rounds;
        if (!check_episode(w, e, /*full_length=*/true, checks)) {
          failed += e.rounds;
        }
        const auto it =
            hash_of_seed.emplace(options.seed, e.history_hash).first;
        checks.expect("deterministic_per_seed", it->second == e.history_hash,
                      "seed " + std::to_string(options.seed) +
                          " gave two different histories");
        if (traced) {
          layers.push_back(layer_metrics(w, e));
          traced_run_s.push_back(e.run_s);
          if (first_trace.empty()) first_trace = e.spans;
        } else {
          e2e.push_back(end_to_end_metrics(e));
          untraced_run_s.push_back(e.run_s);
          // Later episodes reuse freed heap memory, and how fragmented it
          // gets depends on thread timing and earlier episodes' sizes: the
          // first episode's peak varies by about 1% between seeds, the peak
          // after all of them by 10-15%.
          if (rss_mb == 0.0) rss_mb = peak_rss_mb();
        }
      }
    }
    ++cycles;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    const double cycle = static_cast<double>(now_ns() - cycle_start) * 1e-9;
    if (elapsed + cycle > seconds) break;
  }

  if (w.serving) {
    // The serving workload computes exactly what its in-process twin (the
    // paper-femnist configuration) computes for the same seed.
    EpisodeOptions local;
    local.seed = episode_seed(seed, 0);
    local.in_process = true;
    local.probes = false;
    checks.expect("serving_equals_in_process",
                  run_episode(w, local).history_hash ==
                      hash_of_seed.at(local.seed),
                  "serving history differs from the in-process history");
  }

  Metrics metrics = median_metrics(e2e);
  metrics["peak_rss_mb"] = rss_mb;
  if (trace) {
    for (const auto& [name, value] : median_metrics(layers)) {
      metrics[name] = value;
    }
    metrics["obs.trace_overhead_pct"] =
        100.0 * (percentile(traced_run_s, 0.5) /
                     percentile(untraced_run_s, 0.5) -
                 1.0);
  }

  obs::JsonObject self_time;
  if (!first_trace.empty()) {
    for (const auto& [name, row] : self_times_ms(first_trace)) {
      obs::JsonObject o;
      o.field("calls", row.calls)
          .field("self_ms", row.self_ms)
          .field("worker", row.worker)
          .field("container", is_container(name));
      self_time.field_raw(name.c_str(), o.str());
    }
    if (!trace_file.empty()) write_chrome_trace(trace_file, w, first_trace);
  }

  std::string per_episode = "[";
  for (const Metrics& m : e2e) {
    if (per_episode.size() > 1) per_episode += ',';
    per_episode += metrics_json(m);
  }
  per_episode += "]";

  obs::JsonObject o;
  o.field("workload", w.name)
      .field("seed", seed)
      .field("trace", trace)
      .field("cycles", cycles)
      .field("episodes", e2e.size())
      .field("attempted", attempted)
      .field("failed", failed)
      .field("correct", checks.all_ok())
      .field("kernel_backend",
             ops::kernel_backend() == ops::KernelBackend::kOptimized
                 ? "optimized"
                 : "reference")
      .field_raw("checks", checks.json())
      .field_raw("metrics", metrics_json(metrics))
      .field_raw("per_episode", per_episode)
      .field_raw("self_time_ms", self_time.str());
  std::printf("%s\n", o.str().c_str());
  return checks.all_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    const Workload& w = find_workload(flags.get_string("workload", ""));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const bool check_only = flags.get_bool("selfcheck", false);
    const double seconds = flags.get_double("seconds", 10.0);
    const bool trace = flags.get_int("trace", 0) != 0;
    const std::string trace_file = flags.get_string("trace-file", "");
    flags.check_unused();
    if (check_only) return selfcheck(w, seed);
    return measure(w, seed, seconds, trace, trace_file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "haccs_bench: %s\n", e.what());
    return 2;
  }
}
