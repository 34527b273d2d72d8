// haccs_server — the coordinator half of a real multi-process federated run.
//
// Listens on localhost, waits for --workers haccs_worker processes, receives
// each hosted client's P(y) summary over the wire (paper §IV-A's one-time
// uplink), clusters from those summaries, then drives the standard
// FederatedTrainer round loop with every local-training job shipped as a
// TrainJob frame and every update collected as a ClientUpdate frame.
//
// The workload is rebuilt from the same flags + seed on both sides, so the
// run is directly comparable to the single-process `haccs_run` with the
// identical flags — tools/check.sh pins that the two report the same final
// accuracy.
//
// Serving mode (DESIGN.md §5g):
//   * --checkpoint + --checkpoint-every persist a crash-resume RunState
//     (atomic temp-file + rename) after every Nth round; --resume restarts
//     from it, bit-identical to the uninterrupted run.
//   * SIGTERM/SIGINT drain: finish the in-flight round, flush a final
//     checkpoint, send Shutdown frames, exit 0.
//   * --heartbeat-timeout-ms arms per-worker liveness deadlines; a silent
//     worker's jobs fail as Crash and a reconnecting process (fresh Hello +
//     summaries on the same listener) is handed back its slot.
//   * --quorum/--quorum-grace-ms commit a round once that fraction of
//     updates landed instead of blocking on stragglers (pair with
//     --overcommit to re-cover the loss by over-selection).
//   * --chaos-* wraps each accepted session in seeded outbound fault
//     injection (the worker side has the same knobs for its direction).
//
//   ./haccs_server --workers=2 --port=0 --port-file=/tmp/port
//       --rounds=5 --clients=12 --per-round=4 --summary-json=/tmp/s.json
//   ./haccs_worker --worker-id=0 --workers=2 --port-file=/tmp/port ... &
//   ./haccs_worker --worker-id=1 --workers=2 --port-file=/tmp/port ... &
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "examples/multiprocess_common.hpp"
#include "src/common/table.hpp"
#include "src/core/live_recluster.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/selector_registry.hpp"
#include "src/fl/checkpoint.hpp"
#include "src/fl/net_driver.hpp"
#include "src/fl/run_summary.hpp"
#include "src/hier/fleet.hpp"
#include "src/hier/tree_dispatcher.hpp"
#include "src/net/chaos.hpp"
#include "src/net/status.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/select/fedlecc.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
extern "C" void handle_stop_signal(int) { g_stop = 1; }

void print_usage() {
  std::printf(
      "haccs_server — multi-process federated coordinator\n"
      "  --workers=N          worker processes to wait for (default 1)\n"
      "  --port=P             listen port; 0 = ephemeral (default 4242)\n"
      "  --port-file=F        write the resolved port to F (for launchers)\n"
      "  --strategy=S         %s (default haccs-py)\n"
      "  --rho=R              Eq. 7 trade-off (default 0.5)\n"
      "  --accept-timeout-ms=T  per-worker accept deadline (default 30000)\n"
      "  --io-timeout-ms=T    per-frame send and handshake deadline, and the\n"
      "                       whole-round update collection budget\n"
      "                       (default 120000)\n"
      "  --summary-json=F     machine-readable run summary\n"
      "serving: --checkpoint=F  crash-resume checkpoint file\n"
      "  --checkpoint-every=N  persist every N rounds (default 1)\n"
      "  --resume             restore from --checkpoint and continue\n"
      "  --heartbeat-timeout-ms=T  declare a silent worker dead after T ms\n"
      "  --quorum=Q           commit a round at Q of its updates (default 1)\n"
      "  --quorum-grace-ms=T  straggler grace after quorum (default 0)\n"
      "  --overcommit=F       over-select by F (e.g. 0.5 = +50%%)\n"
      "tree (DESIGN.md §5j): --aggs=A  accept A haccs_agg mid-tier\n"
      "                       aggregators instead of workers; --workers\n"
      "                       still names the federation-wide worker count\n"
      "                       (A must divide it). Aggregation is\n"
      "                       bit-identical to a flat --agg-groups=A run.\n"
      "  --agg-groups=A       flat grouped aggregation: fold updates into A\n"
      "                       per-group partial sums in-process (the tree\n"
      "                       bit-identity baseline; default 0 = classic)\n"
      "  --live-recluster     re-cluster the live population on every\n"
      "                       worker/aggregator liveness edge (§5h)\n"
      "chaos (outbound fault injection): --chaos-seed --chaos-drop\n"
      "  --chaos-dup --chaos-reorder --chaos-corrupt --chaos-truncate\n"
      "  --chaos-disconnect\n"
      "workload (must match the workers'): --dataset --clients --per-round\n"
      "  --rounds --classes --seed --full --noise-scale\n"
      "ops plane (DESIGN.md §5i):\n"
      "  --status-port=P      serve /metrics, /status, /healthz on\n"
      "                       127.0.0.1:P; 0 = ephemeral (default: off)\n"
      "  --status-port-file=F write the resolved status port to F\n"
      "  --flight-dir=D       crash flight recorder: dump flight-<ts>.json\n"
      "                       into D on SIGSEGV/SIGABRT/drain\n"
      "telemetry: --trace --metrics --events --log-level\n"
      "  (--trace merges worker span shards into one Chrome trace)\n",
      haccs::core::selector_usage(haccs::core::SelectorInput::ResponseSummaries)
          .c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace haccs;
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }

  bench::ExperimentConfig exp;
  exp.apply_flags(flags);
  // Wire telemetry (net_bytes_*_total, net_frames_corrupt_total) is the
  // point of this binary, so the metrics pillar is always on here — the
  // summary reports actual transported bytes, not just priced ones.
  obs::set_metrics_enabled(true);
  const std::size_t num_workers = flags.get_count("workers", 1);
  const auto port_flag = static_cast<std::uint16_t>(flags.get_int("port", 4242));
  const std::string port_file = flags.get_string("port-file", "");
  const std::string strategy = flags.get_string("strategy", "haccs-py");
  const double rho = flags.get_double("rho", 0.5);
  const int accept_timeout_ms =
      static_cast<int>(flags.get_int("accept-timeout-ms", 30000));
  const int io_timeout_ms =
      static_cast<int>(flags.get_int("io-timeout-ms", 120000));
  const std::string summary_json = flags.get_string("summary-json", "");
  const std::string checkpoint_path = flags.get_string("checkpoint", "");
  const std::size_t checkpoint_every = flags.get_count("checkpoint-every", 1);
  const bool resume = flags.get_bool("resume", false);
  const int heartbeat_timeout_ms =
      static_cast<int>(flags.get_int("heartbeat-timeout-ms", 0));
  const double quorum = flags.get_double("quorum", 1.0);
  const int quorum_grace_ms =
      static_cast<int>(flags.get_int("quorum-grace-ms", 0));
  const double overcommit = flags.get_double("overcommit", 0.0);
  const std::size_t num_aggs = flags.get_count("aggs", 0);
  const std::size_t agg_groups = flags.get_count("agg-groups", 0);
  const bool live_recluster = flags.get_bool("live-recluster", false);
  const int status_port = static_cast<int>(flags.get_int("status-port", -1));
  const std::string status_port_file =
      flags.get_string("status-port-file", "");
  const std::string flight_dir = flags.get_string("flight-dir", "");
  // apply_flags already consumed --trace to configure the pillar; the path
  // is re-read here because the merged multi-process trace overwrites the
  // plain single-process flush at exit.
  const std::string trace_path = flags.get_string("trace", "");
  const net::ChaosOptions chaos = examples::parse_chaos_flags(flags);
  flags.check_unused();
  if (num_workers == 0) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return 1;
  }
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint\n");
    return 1;
  }
  if (num_aggs > 0 && agg_groups > 0) {
    std::fprintf(stderr,
                 "--aggs and --agg-groups are exclusive (a tree run IS the "
                 "grouped aggregation)\n");
    return 1;
  }
  if ((num_aggs > 0 && num_workers % num_aggs != 0) ||
      (agg_groups > 0 && num_workers % agg_groups != 0)) {
    std::fprintf(stderr, "--aggs/--agg-groups must divide --workers\n");
    return 1;
  }
  if (num_aggs > 0 && quorum < 1.0) {
    std::fprintf(stderr,
                 "--quorum is not supported in tree mode (the mid tier owns "
                 "straggler deadlines via --round-timeout-ms)\n");
    return 1;
  }
  // The server only ever holds the workers' wire-borne P(y) summaries, so a
  // strategy needing more is rejected here, before any worker connects, as
  // is an engine config the trainer would refuse.
  core::require_selector_input(strategy,
                               core::SelectorInput::ResponseSummaries);
  exp.check();
  if (live_recluster && !core::selector_info(strategy).haccs_summary) {
    std::fprintf(stderr, "--live-recluster requires --strategy=haccs-py\n");
    return 1;
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  // ---- crash flight recorder (§5i) ----
  if (!flight_dir.empty()) {
    obs::FlightRecorder::global().enable(flight_dir);
    obs::FlightRecorder::global().install_crash_handlers();
    std::fprintf(stderr, "flight recorder armed: %s\n",
                 obs::FlightRecorder::global().path().c_str());
  }

  // Both processes rebuild the identical federation from the same flags;
  // only parameters, updates, and summaries cross the wire.
  const data::FederatedDataset fed = examples::build_federation(exp);
  auto engine_config = exp.make_engine_config(fed);
  engine_config.overcommit = overcommit;

  // ---- crash-resume: load before accepting, fail fast on a bad file ----
  std::optional<fl::RunState> resume_state;
  if (resume) {
    if (std::ifstream(checkpoint_path).good()) {
      resume_state = fl::load_run_state(checkpoint_path);
      std::fprintf(stderr, "resuming from %s at round %zu of %zu\n",
                   checkpoint_path.c_str(), resume_state->next_epoch,
                   engine_config.rounds);
    } else {
      std::fprintf(stderr, "--resume: no checkpoint at %s, starting fresh\n",
                   checkpoint_path.c_str());
    }
  }

  // ---- accept the worker fleet ----
  net::TcpListener listener(port_flag);
  if (!port_file.empty()) examples::write_port_file(port_file, listener.port());
  std::fprintf(stderr,
               "listening on 127.0.0.1:%u, waiting for %zu %s\n",
               listener.port(), num_aggs > 0 ? num_aggs : num_workers,
               num_aggs > 0 ? "aggregator(s)" : "worker(s)");

  // The peers are workers (flat) or mid-tier aggregators (tree); both yield
  // the same wire-borne summary view.
  hier::FleetConfig fleet_config;
  fleet_config.num_workers = num_workers;
  fleet_config.num_aggs = num_aggs;
  fleet_config.num_clients = fed.num_clients();
  fleet_config.io_timeout_ms = io_timeout_ms;
  fleet_config.chaos = chaos;
  hier::Fleet fleet(fleet_config, [&listener](int timeout_ms) {
    return listener.accept(timeout_ms);
  });
  fleet.accept_all(accept_timeout_ms);
  std::vector<core::ClientSummary> wire_summaries(fed.num_clients());
  for (std::size_t c = 0; c < wire_summaries.size(); ++c) {
    wire_summaries[c].response = fleet.summaries()[c];
  }

  // ---- strategy ----
  if (core::selector_info(strategy).input != core::SelectorInput::None &&
      !fleet.have_all_summaries()) {
    std::fprintf(stderr,
                 "missing client summaries — check each worker's "
                 "--worker-id/--workers against --workers here\n");
    return 1;
  }
  // Build from the summaries the workers actually sent: the wire-borne
  // equivalent of the in-process dataset path (and identical to it for the
  // same flags, since the f64 tables round-trip bit-exactly).
  core::SelectorContext selector_ctx;
  selector_ctx.haccs.rho = rho;
  selector_ctx.haccs.initial_loss = engine_config.initial_loss;
  selector_ctx.rounds = engine_config.rounds;
  selector_ctx.summaries = &wire_summaries;
  const auto selector = core::make_selector(strategy, selector_ctx);
  // The --live-recluster hook (validated at startup to be a HaccsSelector).
  auto* const haccs_selector_ptr =
      dynamic_cast<core::HaccsSelector*>(selector.get());
  // Reported on /status (0 = unclustered): the selector's effective count
  // (DBSCAN noise remapped to singleton clusters), which is what scheduling
  // actually operates on.
  std::size_t num_clusters = 0;
  if (haccs_selector_ptr) {
    num_clusters = haccs_selector_ptr->num_clusters();
  } else if (const auto* fedlecc =
                 dynamic_cast<const select::FedLeccSelector*>(selector.get())) {
    num_clusters = fedlecc->num_clusters();
  }

  // ---- train over the transports ----
  // One config for either root; a tree refuses the flat-only fields.
  fl::TransportDispatcherConfig dispatch_config;
  dispatch_config.work = fl::local_work_config(engine_config);
  dispatch_config.send_timeout_ms = io_timeout_ms;
  dispatch_config.recv_timeout_ms = io_timeout_ms;
  dispatch_config.heartbeat_timeout_ms = heartbeat_timeout_ms;
  dispatch_config.quorum_fraction = quorum;
  dispatch_config.quorum_grace_ms = quorum_grace_ms;
  // Grouped aggregation (§5j): the flat baseline a tree run must match
  // bit-for-bit. The norm threshold must mirror the engine's so the fold
  // rejects exactly the updates the engine itself would.
  dispatch_config.agg_groups = agg_groups;
  dispatch_config.max_update_norm = engine_config.max_update_norm;
  // Liveness mode implies fleet management: dead workers may reconnect and
  // reclaim their slot. With the default flags a dead worker stays dead, as
  // a dead aggregator always does.
  if (num_aggs == 0 && (heartbeat_timeout_ms > 0 || quorum < 1.0)) {
    dispatch_config.reacquire = [&fleet](std::size_t w) {
      return fleet.reacquire(w);
    };
  }

  // ---- live re-cluster (§5h): membership follows liveness edges ----
  std::optional<core::LiveClusterTracker> live_tracker;
  if (live_recluster) {
    // A liveness edge covers one dispatcher peer: a worker's hosted clients
    // in flat mode, a whole subtree in tree mode.
    const std::size_t members = num_aggs > 0 ? num_aggs : num_workers;
    std::vector<std::vector<std::size_t>> clients_of_member(members);
    for (std::size_t c = 0; c < fed.num_clients(); ++c) {
      const std::size_t w = c % num_workers;
      clients_of_member[num_aggs > 0 ? w / (num_workers / num_aggs) : w]
          .push_back(c);
    }
    live_tracker.emplace(wire_summaries, std::move(clients_of_member),
                         selector_ctx.haccs);
  }
  auto on_liveness = [&](std::size_t member, bool alive) {
    if (!live_tracker) return;
    live_tracker->on_member(member, alive);
    // Refresh immediately: the dispatcher fires edges on the engine thread,
    // so the new labels are in place before the next round's select().
    live_tracker->refresh(*haccs_selector_ptr);
  };
  if (live_tracker) dispatch_config.on_liveness = on_liveness;

  // ---- ops plane: trace-shard collection + live status (§5i) ----
  // Shards arrive on the dispatcher's collection path during rounds and on
  // the post-Shutdown drain below — both on this thread, so no lock.
  std::vector<obs::WorkerTrack> worker_tracks;
  auto collect_shard = [&worker_tracks](net::TraceShardMsg&& shard) {
    obs::WorkerTrack track;
    track.worker_id = shard.worker_id;
    track.label = "worker-" + std::to_string(shard.worker_id);
    // Upper-bound clock alignment: server-now at receipt minus the worker's
    // clock at send (both ns since their own process start).
    track.clock_offset_ns = static_cast<std::int64_t>(obs::now_ns()) -
                            static_cast<std::int64_t>(shard.send_ns);
    track.events = std::move(shard.events);
    worker_tracks.push_back(std::move(track));
  };
  if (obs::trace_enabled()) dispatch_config.on_trace_shard = collect_shard;

  // Board rows are the dispatcher's direct peers: workers in flat mode,
  // aggregators in tree mode.
  fl::ServingStatusBoard status_board(num_aggs > 0 ? num_aggs : num_workers);
  const char* const tier = num_aggs > 0 ? "root" : "flat";
  std::optional<net::StatusServer> status_server;
  if (status_port >= 0) {
    dispatch_config.status_board = &status_board;
    const auto started = std::chrono::steady_clock::now();
    net::StatusEndpoints endpoints;
    endpoints.metrics_text = [] {
      return obs::Registry::global().to_prometheus();
    };
    endpoints.status_json = [&status_board, num_clusters, started, tier] {
      const double uptime_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      const auto& wire = net::NetMetrics::get();
      const std::uint64_t sent = wire.bytes_sent.value();
      const std::uint64_t received = wire.bytes_received.value();
      obs::JsonObject o;
      o.field("tier", tier)
          .field("uptime_s", uptime_s)
          .field("clusters", num_clusters)
          .field("net_bytes_sent", sent)
          .field("net_bytes_received", received)
          .field("downlink_rate_bps",
                 uptime_s > 0 ? static_cast<double>(sent) / uptime_s : 0.0)
          .field("uplink_rate_bps",
                 uptime_s > 0 ? static_cast<double>(received) / uptime_s
                              : 0.0)
          .field_raw("serving", status_board.to_json());
      return o.str();
    };
    status_server.emplace(static_cast<std::uint16_t>(status_port),
                          std::move(endpoints));
    if (!status_port_file.empty()) {
      examples::write_port_file(status_port_file, status_server->port());
    }
    std::fprintf(stderr, "status endpoint on 127.0.0.1:%u "
                 "(/metrics /status /healthz)\n",
                 status_server->port());
  }

  std::optional<fl::TransportDispatcher> flat_dispatcher;
  std::optional<hier::TreeDispatcher> tree_dispatcher;
  if (num_aggs > 0) {
    tree_dispatcher.emplace(fleet.transports(), std::move(dispatch_config),
                            num_workers);
    engine_config.dispatcher = &*tree_dispatcher;
  } else {
    flat_dispatcher.emplace(fleet.transports(), std::move(dispatch_config));
    engine_config.dispatcher = &*flat_dispatcher;
  }
  engine_config.stop_requested = [] { return g_stop != 0; };

  // Checkpoint cadence: persist every Nth round, plus the final round and
  // the round a SIGTERM/SIGINT drain stops after (that save is what
  // --resume restarts from). Skipped rounds never materialize the snapshot,
  // so cadenced checkpointing costs O(history) per save, not per round.
  if (!checkpoint_path.empty()) {
    engine_config.on_checkpoint =
        [&](std::size_t next_epoch,
            const fl::EngineConfig::RunStateFactory& snapshot) {
          const bool cadence =
              checkpoint_every == 0 || next_epoch % checkpoint_every == 0;
          if (!cadence && g_stop == 0 && next_epoch < engine_config.rounds) {
            return;
          }
          fl::save_run_state(snapshot(), checkpoint_path);
        };
  }

  fl::FederatedTrainer trainer(
      fed, core::default_model_factory(fed, examples::kModelSeed),
      engine_config);
  std::fprintf(stderr, "running %s: %zu clients, %zu/round, %zu rounds, "
               "%zu worker process(es)\n",
               selector->name().c_str(), fed.num_clients(),
               engine_config.clients_per_round, engine_config.rounds,
               num_workers);
  const auto schedule = sim::make_always_available(fed.num_clients());
  const fl::TrainingHistory history = trainer.run(
      *selector, *schedule, resume_state ? &*resume_state : nullptr);

  const bool drained = g_stop != 0 &&
                       history.records().size() < engine_config.rounds;
  if (drained) {
    std::fprintf(stderr,
                 "stop signal received: drained after round %zu of %zu\n",
                 history.records().size(), engine_config.rounds);
    // A drain is the orderly half of a crash — persist the same evidence.
    obs::FlightRecorder::global().dump("sigterm-drain");
  }
  // ---- wind down the fleet ----
  net::EvalReportMsg report;
  report.epoch = history.records().size();
  report.accuracy = history.final_accuracy();
  report.loss = history.records().empty()
                    ? 0.0
                    : history.records().back().global_loss;
  if (obs::trace_enabled()) {
    // A valid context on the EvalReport tells each worker to ship its
    // final-round span shard before the Shutdown lands.
    report.trace.trace_id = obs::process_trace_id();
    report.trace.round = static_cast<std::int64_t>(history.records().size());
  }
  fleet.shut_down(report, collect_shard);

  // ---- report ----
  auto counter_value = [](const char* name) {
    return obs::Registry::global().counter(name).value();
  };
  const auto& wire = net::NetMetrics::get();
  Table summary({"metric", "value"});
  summary.add_row({"strategy", selector->name()});
  summary.add_row({"workers", std::to_string(num_workers)});
  if (num_aggs > 0) summary.add_row({"aggs", std::to_string(num_aggs)});
  if (agg_groups > 0) {
    summary.add_row({"agg_groups", std::to_string(agg_groups)});
  }
  summary.add_row({"rounds_completed", std::to_string(history.records().size())});
  summary.add_row({"final_accuracy", Table::num(history.final_accuracy(), 4)});
  summary.add_row({"best_accuracy", Table::num(history.best_accuracy(), 4)});
  summary.add_row({"total_sim_time_s", Table::num(history.total_time(), 1)});
  summary.add_row(
      {"uplink_bytes", std::to_string(history.total_uplink_bytes())});
  summary.add_row(
      {"downlink_bytes", std::to_string(history.total_downlink_bytes())});
  summary.add_row(
      {"net_bytes_sent", std::to_string(wire.bytes_sent.value())});
  summary.add_row(
      {"net_bytes_received", std::to_string(wire.bytes_received.value())});
  summary.add_row(
      {"net_frames_corrupt", std::to_string(wire.frames_corrupt.value())});
  summary.add_row({"net_reconnects",
                   std::to_string(counter_value("net_reconnects_total"))});
  summary.add_row({"heartbeats_missed",
                   std::to_string(counter_value("heartbeats_missed_total"))});
  summary.add_row(
      {"rounds_quorum_degraded",
       std::to_string(counter_value("rounds_quorum_degraded_total"))});
  summary.add_row(
      {"checkpoints_written",
       std::to_string(counter_value("checkpoints_written_total"))});
  summary.print();

  if (!summary_json.empty()) {
    obs::JsonObject o;
    o.field("strategy", selector->name())
        .field("tier", tier)
        .field("workers", num_workers)
        .field("aggs", num_aggs)
        .field("agg_groups", agg_groups)
        .field("rounds", engine_config.rounds)
        .field("rounds_completed", history.records().size())
        .field("resumed", resume_state.has_value())
        .field("drained", drained)
        .field("clients", fed.num_clients())
        .field("per_round", engine_config.clients_per_round)
        .field("seed", exp.seed);
    fl::append_summary_history(o, history);
    o.field("net_bytes_sent", wire.bytes_sent.value())
        .field("net_bytes_received", wire.bytes_received.value())
        .field("net_frames_corrupt", wire.frames_corrupt.value());
    fl::append_summary_counters(o);
    if (!fl::write_summary_json(o, summary_json)) return 1;
  }

  obs::flush();
  if (obs::trace_enabled() && !trace_path.empty()) {
    // Overwrite the single-process trace flush() just wrote with the merged
    // multi-process view: server spans on pid 1, one Chrome "process" per
    // worker shard, parent/child stitched via span ids.
    const std::string merged = obs::merged_chrome_json(
        obs::TraceBuffer::global().snapshot(), worker_tracks);
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f) {
      std::fprintf(f, "%s", merged.c_str());
      std::fclose(f);
      std::fprintf(stderr, "wrote merged trace (%zu worker shard(s)) to %s\n",
                   worker_tracks.size(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
    }
  }
  if (status_server) status_server->stop();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "haccs_server: %s\n", e.what());
  return 1;
}
