// haccs_worker — the device half of a real multi-process federated run.
//
// Rebuilds the same federation as the server from the same flags + seed,
// connects over TCP, introduces itself with a Hello frame, uploads one P(y)
// summary per hosted client (paper §IV-A), then serves TrainJob frames with
// the identical local training the in-process engine runs — the job carries
// the engine's forked RNG seed, so the round is bit-identical no matter
// which process executes it.
//
// Serving mode (DESIGN.md §5g): when the connection drops mid-run the worker
// reconnects with capped exponential backoff + jitter, repeats the Hello +
// summary handshake (the session resume the server's fleet expects), and
// keeps serving — its WorkerLoop persists, so cross-round compression
// residuals survive the reconnect. --heartbeat-interval-ms announces
// liveness while training; --chaos-* injects seeded wire faults on the
// worker's own outbound traffic.
//
// Exit codes: 0 orderly Shutdown; 1 usage/configuration error; 3 connect
// retries exhausted; 4 idle timeout with no traffic.
//
//   ./haccs_worker --worker-id=0 --workers=2 --port-file=/tmp/port
//       --rounds=5 --clients=12 --per-round=4
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench/harness.hpp"
#include "examples/multiprocess_common.hpp"
#include "src/common/logging.hpp"
#include "src/fl/net_driver.hpp"
#include "src/hier/fleet.hpp"
#include "src/net/chaos.hpp"
#include "src/net/tcp.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"

namespace {

constexpr int kExitConnectExhausted = 3;
constexpr int kExitIdleTimeout = 4;

void print_usage() {
  std::puts(
      "haccs_worker — multi-process federated worker\n"
      "  --host=H             server host (default 127.0.0.1)\n"
      "  --port=P             server port (default 4242)\n"
      "  --port-file=F        poll F for the port instead (server writes it)\n"
      "  --worker-id=I        this worker's id in [0, --workers)\n"
      "  --workers=N          total workers; this one hosts clients with\n"
      "                       id %% N == I (default 1)\n"
      "  --idle-timeout-ms=T  exit after T ms without traffic; <0 = wait\n"
      "                       forever (default 120000)\n"
      "serving: --heartbeat-interval-ms=T  liveness beacons while serving\n"
      "  --reconnect-attempts=N  consecutive failed connects before giving\n"
      "                       up (default 10; exit code 3)\n"
      "  --reconnect-backoff-ms=T  initial backoff, doubled per failure and\n"
      "                       capped at 32x, with jitter (default 200)\n"
      "chaos (outbound fault injection): --chaos-seed --chaos-drop\n"
      "  --chaos-dup --chaos-reorder --chaos-corrupt --chaos-truncate\n"
      "  --chaos-disconnect\n"
      "workload (must match the server's): --dataset --clients --per-round\n"
      "  --rounds --classes --seed --full --noise-scale\n"
      "telemetry: --trace --metrics --events --log-level (HACCS_LOG env is\n"
      "  honored when --log-level is absent)\n"
      "exit codes: 0 shutdown, 1 error, 3 connect exhausted, 4 idle timeout");
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
  // Fleet launchers set one HACCS_LOG for every worker; an explicit
  // --log-level still wins (apply_flags already consumed it above).
  if (!flags.has("log-level")) {
    const char* env_level = std::getenv("HACCS_LOG");
    if (env_level != nullptr && env_level[0] != '\0') {
      set_log_level(parse_log_level(env_level));
    }
  }
  const std::string host = flags.get_string("host", "127.0.0.1");
  auto port = static_cast<std::uint16_t>(flags.get_int("port", 4242));
  const std::string port_file = flags.get_string("port-file", "");
  const auto worker_id =
      static_cast<std::uint32_t>(flags.get_count("worker-id", 0));
  const auto num_workers =
      static_cast<std::uint32_t>(flags.get_count("workers", 1));
  const int idle_timeout_ms =
      static_cast<int>(flags.get_int("idle-timeout-ms", 120000));
  const int heartbeat_interval_ms =
      static_cast<int>(flags.get_int("heartbeat-interval-ms", 0));
  const int reconnect_attempts =
      static_cast<int>(flags.get_int("reconnect-attempts", 10));
  const int reconnect_backoff_ms =
      static_cast<int>(flags.get_int("reconnect-backoff-ms", 200));
  const net::ChaosOptions chaos = examples::parse_chaos_flags(flags);
  flags.check_unused();
  if (num_workers == 0 || worker_id >= num_workers) {
    std::fprintf(stderr, "--worker-id must lie in [0, --workers)\n");
    return 1;
  }
  // Span ids minted here must stay distinct from the server's and every
  // other worker's when shards are merged into one trace (§5i): salt the
  // high bits with the worker id.
  obs::set_span_id_salt(static_cast<std::uint64_t>(worker_id + 1) << 40);

  const data::FederatedDataset fed = examples::build_federation(exp);

  fl::WorkerLoopConfig loop_config;
  loop_config.worker_id = worker_id;
  loop_config.recv_timeout_ms = idle_timeout_ms;
  loop_config.exit_on_timeout = idle_timeout_ms >= 0;
  loop_config.heartbeat_interval_ms = heartbeat_interval_ms;
  // One WorkerLoop for the whole process lifetime: it owns the per-client
  // compression residuals, which must survive reconnects.
  fl::WorkerLoop loop(fed,
                      core::default_model_factory(fed, examples::kModelSeed),
                      loop_config);

  obs::Counter& reconnects =
      obs::Registry::global().counter("net_reconnects_total");
  // Deterministic jitter stream — reproducible launches, desynchronized
  // stampedes (each worker id jitters differently).
  Rng jitter_rng(exp.seed ^ 0x7ec0ffeeULL ^ worker_id);

  std::size_t sessions = 0;
  for (;;) {
    auto transport = examples::connect_with_backoff(
        reconnect_attempts, reconnect_backoff_ms, jitter_rng,
        [&]() -> std::unique_ptr<net::Transport> {
          // Re-read the port file every attempt: a server restarted with
          // --resume may have re-bound to a fresh ephemeral port.
          if (!port_file.empty()) {
            port = examples::wait_for_port_file(port_file, 30000);
          }
          auto dialed = net::connect_tcp(host, port, net::TcpConnectOptions{});
          // Session (re-)establishment: the same Hello + summary uplink on
          // first connect and on every resume, so the server can rebuild
          // its view.
          if (dialed && !hier::send_worker_hello(*dialed, fed, worker_id,
                                                 num_workers)) {
            dialed.reset();
          }
          return dialed;
        });
    if (!transport) {
      std::fprintf(stderr,
                   "worker %u: %d consecutive connect attempts failed; "
                   "giving up\n",
                   worker_id, reconnect_attempts + 1);
      return kExitConnectExhausted;
    }
    if (sessions > 0) reconnects.inc();
    ++sessions;
    std::fprintf(stderr,
                 "worker %u: session %zu on %s\n", worker_id, sessions,
                 transport->peer().c_str());

    // Chaos wraps the established session (the handshake above runs clean;
    // chaos targets steady-state serving traffic). Fork the seed per
    // session so a reconnect does not replay the identical fault script.
    auto session =
        net::wrap_chaos(std::move(transport),
                        [&] {
                          net::ChaosOptions forked = chaos;
                          forked.seed =
                              chaos.seed ^ (0xd15c0113c7ULL * sessions) ^
                              worker_id;
                          return forked;
                        }());

    const fl::WorkerRunEnd end = loop.serve(*session);
    if (end == fl::WorkerRunEnd::Shutdown) break;
    if (end == fl::WorkerRunEnd::IdleTimeout) {
      std::fprintf(stderr, "worker %u: idle timeout, served %zu job(s)\n",
                   worker_id, loop.jobs_served());
      return kExitIdleTimeout;
    }
    std::fprintf(stderr, "worker %u: connection lost, reconnecting\n",
                 worker_id);
  }
  std::fprintf(stderr, "worker %u: done, served %zu job(s)\n", worker_id,
               loop.jobs_served());

  obs::flush();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "haccs_worker: %s\n", e.what());
  return 1;
}
