// Shared pieces of the multi-process examples: workload construction, port
// files, the log level, the status endpoint, the --chaos-* flags and the
// upstream connect with backoff.
//
// haccs_server and haccs_worker each rebuild the identical federation from
// the same flags + seed (synthetic data is a pure function of the seed), so
// only parameters, updates, and summaries ever cross the wire — exactly the
// deployment model of the paper's testbed, where each device already holds
// its local data.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench/harness.hpp"
#include "src/common/logging.hpp"
#include "src/common/rng.hpp"
#include "src/data/partition.hpp"
#include "src/net/chaos.hpp"
#include "src/net/status.hpp"
#include "src/net/transport.hpp"
#include "src/obs/metrics.hpp"

namespace haccs::examples {

inline data::FederatedDataset build_federation(
    const bench::ExperimentConfig& exp) {
  auto gen = exp.make_generator();
  Rng rng(exp.seed);
  return data::partition_majority_label(gen, exp.make_partition_config(), rng);
}

/// The model-factory seed both processes must agree on (same constant
/// tools/haccs_run.cpp uses, so a TCP run is comparable to a local one).
inline constexpr std::uint64_t kModelSeed = 99;

/// Publishes the listen port atomically: write a sibling temp file, then
/// rename over `path`. A worker polling the file either sees nothing or the
/// complete port — never a partially written number (the old plain-fopen
/// write raced the worker's poll).
inline void write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + tmp);
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish port file " + path);
  }
}

/// Polls `path` until it holds a port number (the upstream process writes
/// it after binding — the normal race in a scripted multi-process launch).
inline std::uint16_t wait_for_port_file(const std::string& path,
                                        int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::ifstream in(path);
    int port = 0;
    if (in && (in >> port) && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("timed out waiting for port file " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Applies --log-level or, when it is absent, the HACCS_LOG a fleet
/// launcher sets for every process.
inline void apply_log_level(const Flags& flags) {
  std::string level = flags.get_string("log-level", "");
  if (const char* env = std::getenv("HACCS_LOG"); level.empty() && env) {
    level = env;
  }
  if (!level.empty()) set_log_level(parse_log_level(level));
}

/// Starts the ops endpoint when `port` >= 0 (0 = ephemeral; null when
/// off): /metrics from the global registry, /status from `status_json`
/// (given the process's uptime in seconds), /healthz built in. Publishes
/// the bound port to `port_file` when set and prints the banner.
inline std::unique_ptr<net::StatusServer> start_status_endpoint(
    int port, const std::string& port_file,
    std::function<std::string(double uptime_s)> status_json) {
  if (port < 0) return nullptr;
  const auto started = std::chrono::steady_clock::now();
  net::StatusEndpoints endpoints;
  endpoints.metrics_text = [] {
    return obs::Registry::global().to_prometheus();
  };
  endpoints.status_json = [started, status_json = std::move(status_json)] {
    return status_json(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started)
                           .count());
  };
  auto server = std::make_unique<net::StatusServer>(
      static_cast<std::uint16_t>(port), std::move(endpoints));
  if (!port_file.empty()) write_port_file(port_file, server->port());
  std::fprintf(stderr,
               "status endpoint on 127.0.0.1:%u (/metrics /status /healthz)\n",
               server->port());
  return server;
}

/// Dials the upstream tier with capped exponential backoff: `dial` makes
/// one attempt (nullptr = failed). After the k-th consecutive failure it
/// sleeps base_ms · 2^min(k-1, 5), scaled by a jitter in [0.5, 1.5) drawn
/// from `jitter` so a fleet's reconnects spread out. Returns nullptr once
/// `attempts` retries have failed too.
inline std::unique_ptr<net::Transport> connect_with_backoff(
    int attempts, int base_ms, Rng& jitter,
    const std::function<std::unique_ptr<net::Transport>()>& dial) {
  for (int failures = 1;; ++failures) {
    if (auto transport = dial()) return transport;
    if (failures > attempts) return nullptr;
    const double backoff = static_cast<double>(base_ms) *
                           static_cast<double>(1 << std::min(failures - 1, 5)) *
                           (0.5 + jitter.uniform());
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(backoff)));
  }
}

/// Shared --chaos-* flags (both binaries take the same knobs; each process
/// injects on its own outbound traffic).
inline net::ChaosOptions parse_chaos_flags(const Flags& flags) {
  net::ChaosOptions chaos;
  chaos.seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 1));
  chaos.drop_rate = flags.get_double("chaos-drop", 0.0);
  chaos.duplicate_rate = flags.get_double("chaos-dup", 0.0);
  chaos.reorder_rate = flags.get_double("chaos-reorder", 0.0);
  chaos.corrupt_rate = flags.get_double("chaos-corrupt", 0.0);
  chaos.truncate_rate = flags.get_double("chaos-truncate", 0.0);
  chaos.disconnect_rate = flags.get_double("chaos-disconnect", 0.0);
  return chaos;
}

}  // namespace haccs::examples
