// haccs_agg — the mid-tier of a hierarchical aggregation tree (DESIGN.md
// §5j).
//
// One aggregator process is the flat root of its subtree: it fronts a
// contiguous slice of the federation's workers on its own TCP listener and
// serves them with the flat root's fleet, dispatcher and fold, and it talks
// upstream to the root over a single TCP connection like one big worker.
// It is deliberately workload-agnostic — it never loads a dataset or model;
// update weights come off the wire (sample_count) and each round's global
// parameters, recipe and norm bound arrive in the root's SubtreeRound, so
// the same binary serves any experiment the root and workers agree on.
//
// Lifecycle: bind the listener, publish its port (--listen-port-file),
// connect upstream, admit every subtree worker (Hello + Summary), announce
// the subtree with TopologyHello, then run rounds until the root's Shutdown
// (relayed downstream) or the upstream link dies.
//
// Exit codes: 0 orderly shutdown; 1 usage/configuration error; 2 handshake
// or upstream failure; 3 connect retries exhausted.
//
//   ./haccs_agg --agg-id=0 --aggs=2 --workers=4 --port-file=/tmp/root.port
//       --listen-port-file=/tmp/agg0.port
#include <cstdio>
#include <memory>
#include <string>

#include "bench/harness.hpp"
#include "examples/multiprocess_common.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/mid_tier.hpp"
#include "src/net/chaos.hpp"
#include "src/net/status.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace {

constexpr int kExitRunFailed = 2;
constexpr int kExitConnectExhausted = 3;

void print_usage() {
  std::puts(
      "haccs_agg — mid-tier aggregator of a hierarchical federation\n"
      "  --agg-id=I            this aggregator's id in [0, --aggs)\n"
      "  --aggs=A              total aggregators (default 1)\n"
      "  --workers=W           federation-wide worker count; this process\n"
      "                        fronts workers [I*W/A, (I+1)*W/A) (A must\n"
      "                        divide W)\n"
      "upstream (root): --host=H --port=P or --port-file=F\n"
      "downstream (workers): --listen-port=P (default 0 = ephemeral)\n"
      "  --listen-port-file=F  publish the bound listen port to F\n"
      "rounds: --round-timeout-ms=T  budget for the subtree to answer a\n"
      "                        round's jobs; stragglers fail as Timeout\n"
      "                        (default 30000)\n"
      "  --handshake-timeout-ms=T  deadline per worker accept and per\n"
      "                        Hello/Summary frame at startup (default 60000)\n"
      "  --heartbeat-interval-ms=T  upstream liveness cadence, kept up\n"
      "                        while collecting (default 0)\n"
      "ops: --status-port=P --status-port-file=F  /metrics /status /healthz\n"
      "chaos (upstream fault injection): --chaos-seed --chaos-drop\n"
      "  --chaos-dup --chaos-reorder --chaos-corrupt --chaos-truncate\n"
      "  --chaos-disconnect\n"
      "misc: --reconnect-attempts=N --reconnect-backoff-ms=T --log-level=L\n"
      "  (HACCS_LOG env is honored when --log-level is absent)\n"
      "accounting: hier_rounds_total, hier_updates_folded_total and the exit\n"
      "  line count SubtreeUpdates sent, not accepted; a subtree the root\n"
      "  lost shows in the root's hier_aggs_salvaged_total (aggs_salvaged)\n"
      "exit codes: 0 shutdown, 1 error, 2 run failed (a refused or missing\n"
      "  worker, or the root lost), 3 connect exhausted");
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace haccs;
  const Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    print_usage();
    return 0;
  }

  // Byte accounting across the tree is this binary's contract with the
  // smoke test, so the metrics pillar is always on here.
  obs::set_metrics_enabled(true);
  examples::apply_log_level(flags);

  const std::string host = flags.get_string("host", "127.0.0.1");
  auto port = static_cast<std::uint16_t>(flags.get_int("port", 4242));
  const std::string port_file = flags.get_string("port-file", "");
  const auto agg_id = static_cast<std::uint32_t>(flags.get_count("agg-id", 0));
  const auto num_aggs = static_cast<std::uint32_t>(flags.get_count("aggs", 1));
  const auto num_workers =
      static_cast<std::uint32_t>(flags.get_count("workers", 1));
  const auto listen_port =
      static_cast<std::uint16_t>(flags.get_int("listen-port", 0));
  const std::string listen_port_file =
      flags.get_string("listen-port-file", "");
  const int round_timeout_ms =
      static_cast<int>(flags.get_int("round-timeout-ms", 30000));
  const int handshake_timeout_ms =
      static_cast<int>(flags.get_int("handshake-timeout-ms", 60000));
  const int heartbeat_interval_ms =
      static_cast<int>(flags.get_int("heartbeat-interval-ms", 0));
  const int status_port = static_cast<int>(flags.get_int("status-port", -1));
  const std::string status_port_file =
      flags.get_string("status-port-file", "");
  const int reconnect_attempts =
      static_cast<int>(flags.get_int("reconnect-attempts", 10));
  const int reconnect_backoff_ms =
      static_cast<int>(flags.get_int("reconnect-backoff-ms", 200));
  const net::ChaosOptions chaos = examples::parse_chaos_flags(flags);
  flags.check_unused();

  if (num_aggs == 0 || agg_id >= num_aggs) {
    std::fprintf(stderr, "--agg-id must lie in [0, --aggs)\n");
    return 1;
  }
  if (num_workers == 0 || num_workers % num_aggs != 0) {
    std::fprintf(stderr, "--aggs must divide --workers evenly\n");
    return 1;
  }
  // Aggregator span ids must stay distinct from the root's and every
  // worker's in a merged trace; workers salt bits 40+, aggregators 52+.
  obs::set_span_id_salt(static_cast<std::uint64_t>(agg_id + 1) << 52);

  hier::MidTierConfig config;
  config.agg_id = agg_id;
  config.num_aggs = num_aggs;
  config.num_workers = num_workers;
  config.heartbeat_interval_ms = heartbeat_interval_ms;
  config.round_timeout_ms = round_timeout_ms;
  config.handshake_timeout_ms = handshake_timeout_ms;

  // The board rows are this aggregator's subtree workers, surfaced per peer
  // on /status and in haccs_top.
  fl::ServingStatusBoard status_board(num_workers / num_aggs);
  config.status_board = &status_board;

  net::TcpListener listener(listen_port);
  hier::MidTierAggregator agg(config, [&listener](int timeout_ms) {
    return listener.accept(timeout_ms);
  });
  if (!listen_port_file.empty()) {
    examples::write_port_file(listen_port_file, listener.port());
  }
  std::fprintf(stderr,
               "agg %u/%u: listening on 127.0.0.1:%u, fronting workers "
               "[%u, %u)\n",
               agg_id, num_aggs, listener.port(), agg.worker_begin(),
               agg.worker_end());

  const auto status_server = examples::start_status_endpoint(
      status_port, status_port_file,
      [&status_board, agg_id, num_aggs](double uptime_s) {
        auto counter = [](const char* name) {
          return obs::Registry::global().counter(name).value();
        };
        obs::JsonObject o;
        o.field("tier", "mid")
            .field("agg_id", agg_id)
            .field("aggs", num_aggs)
            .field("uptime_s", uptime_s)
            .field("rounds", counter("hier_rounds_total"))
            .field("upstream_bytes_sent",
                   counter("hier_upstream_bytes_sent_total"))
            .field("upstream_bytes_received",
                   counter("hier_upstream_bytes_received_total"))
            .field_raw("serving", status_board.to_json());
        return o.str();
      });

  // Connect upstream with backoff — the root may still be binding when a
  // scripted launch starts every tier at once.
  Rng jitter_rng(0x7ec0ffeeULL ^ agg_id);
  auto upstream = examples::connect_with_backoff(
      reconnect_attempts, reconnect_backoff_ms, jitter_rng, [&] {
        if (!port_file.empty()) {
          port = examples::wait_for_port_file(port_file, 30000);
        }
        return net::connect_tcp(host, port, net::TcpConnectOptions{});
      });
  if (!upstream) {
    std::fprintf(stderr, "agg %u: %d connect attempts failed; giving up\n",
                 agg_id, reconnect_attempts + 1);
    return kExitConnectExhausted;
  }
  std::fprintf(stderr, "agg %u: upstream connected to %s\n", agg_id,
               upstream->peer().c_str());

  // Chaos wraps the aggregator's own outbound traffic on the upstream link
  // (the smoke's "one faulty agg uplink" scenario); the downstream side
  // stays clean.
  auto session = net::wrap_chaos(std::move(upstream), chaos);

  bool ok = false;
  try {
    ok = agg.run(*session);
  } catch (const hier::FleetError& e) {
    // A refused or missing worker. Nothing went upstream, so the root in
    // turn refuses this aggregator by name when the link closes.
    std::fprintf(stderr, "haccs_agg: %s\n", e.what());
    return kExitRunFailed;
  }
  const auto& stats = agg.stats();
  std::fprintf(stderr,
               "agg %u: %s after %zu round(s), %zu folded, %zu rejected, "
               "%zu worker failure(s), %llu B up / %llu B down\n",
               agg_id, ok ? "shutdown" : "upstream lost", stats.rounds,
               stats.folded, stats.rejected, stats.worker_failures,
               static_cast<unsigned long long>(stats.upstream_bytes_sent),
               static_cast<unsigned long long>(
                   stats.upstream_bytes_received));

  obs::flush();
  if (status_server) status_server->stop();
  return ok ? 0 : kExitRunFailed;
} catch (const std::exception& e) {
  std::fprintf(stderr, "haccs_agg: %s\n", e.what());
  return 1;
}
