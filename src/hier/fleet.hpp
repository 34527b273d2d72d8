// Fleet: a serving root's peer management for a multi-process run
// (DESIGN.md §5g, §5j).
//
// A root talks to one kind of peer: workers in a flat run, mid-tier
// aggregators at a tree's root. A mid tier is the flat root of its subtree,
// so it runs a flat fleet over its slice of the workers. Either way a
// session opens with the same handshake — an identity frame (Hello, or
// TopologyHello checked against the expected tree shape) followed by one
// Summary frame per hosted client, the paper's §IV-A one-time P(y) uplink.
// The fleet runs that handshake on transports someone else accepted (a
// TcpListener in haccs_server and haccs_agg, loopback pairs in tests), wraps
// each admitted session in its peer's seeded chaos, keeps the wire-borne
// summaries, and owns the wind-down.
//
// Reconnects (workers only) are staged in per-worker pending slots and only
// swapped into the live slot inside reacquire(w), for exactly the worker the
// dispatcher has declared dead. A worker can observe a disconnect and
// re-Hello before the root's next send/recv on the old link notices, so
// installing the fresh session eagerly would destroy a transport the
// dispatcher still holds a raw pointer to (use-after-free on the next
// fan-out). Aggregators are never resumed: a mid-tier process owns live
// downstream state a fresh process cannot rebuild, so a dead aggregator
// stays dead and the TreeDispatcher contains the loss.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/data/partition.hpp"
#include "src/net/chaos.hpp"
#include "src/net/messages.hpp"
#include "src/net/transport.hpp"
#include "src/stats/summary.hpp"

namespace haccs::hier {

/// A refused peer or an incomplete fleet; the message names the peer.
class FleetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What a handshaking peer may describe: the clients whose worker
/// (client % num_workers) lies in [worker_begin, worker_end) — its own for
/// a worker, its subtree's for an aggregator — with ids below num_clients
/// when the checking tier knows it (0 = unknown, as at a mid tier).
struct PeerScope {
  std::string peer;  ///< the connection's address, named in refusals
  std::size_t num_workers = 1;
  std::size_t worker_begin = 0;
  std::size_t worker_end = 0;
  std::size_t num_clients = 0;

  /// Bound on client ids and on a peer's claimed client count.
  std::size_t client_limit() const {
    return num_clients > 0 ? num_clients : SIZE_MAX;
  }
};

/// The frame-level admission checks of Fleet's handshake. Each throws
/// FleetError naming the peer. check_worker_hello decodes a Hello and
/// checks its id lies in [worker_begin, worker_end); check_summary decodes
/// one Summary from `who` (e.g. "worker 3") and checks the peer hosts its
/// client.
net::HelloMsg check_worker_hello(const net::Frame& frame,
                                 const PeerScope& scope);
std::pair<std::uint32_t, stats::ResponseSummary> check_summary(
    const net::Frame& frame, const PeerScope& scope, const std::string& who);

struct FleetConfig {
  /// Federation-wide worker count.
  std::size_t num_workers = 1;
  /// Flat: the workers this fleet fronts, [worker_begin, worker_end), peer
  /// slot s holding worker worker_begin + s. worker_end = 0 means
  /// num_workers: every worker, as at a flat root. A mid tier fronts its
  /// subtree's slice.
  std::size_t worker_begin = 0;
  std::size_t worker_end = 0;
  /// 0 = flat: the peers are workers. > 0 = tree: the peers are this many
  /// aggregators, aggregator a fronting workers [a·per, (a+1)·per) with
  /// per = num_workers / num_aggs.
  std::size_t num_aggs = 0;
  /// Summaries may name clients [0, num_clients); 0 = unknown, as at a mid
  /// tier (PeerScope::client_limit).
  std::size_t num_clients = 0;
  /// Per-frame deadline for handshake receives and wind-down sends.
  int io_timeout_ms = 120000;
  /// Outbound fault injection on every admitted session; the seed is forked
  /// per peer, and per session for workers.
  net::ChaosOptions chaos;
};

class Fleet {
 public:
  /// Source of accepted transports; nullptr when none arrives in time.
  using Acceptor =
      std::function<std::unique_ptr<net::Transport>(int timeout_ms)>;

  Fleet(FleetConfig config, Acceptor accept);

  /// Fills every peer slot from the acceptor. At startup a timeout, a
  /// refused handshake or a duplicate id is a launcher bug, so each throws
  /// FleetError: the run must neither start short of peers nor hang
  /// re-accepting a misconfigured one. An aggregator announces itself only
  /// after its own workers connected, so the deadline must cover theirs.
  /// Returns each peer's Summary frames as they came off the wire, by peer
  /// slot, for a mid tier to relay upstream.
  std::vector<std::vector<net::Frame>> accept_all(int accept_timeout_ms);

  /// TransportDispatcher reacquire hook: admits every reconnect waiting at
  /// the acceptor (refused ones are logged and dropped), then hands peer
  /// slot `w` its staged session, if any. Only slot `w` is touched: the
  /// dispatcher has declared exactly that transport dead.
  net::Transport* reacquire(std::size_t w);

  /// Wind-down: EvalReport + Shutdown to every peer. When the report
  /// carries a valid trace context (which tells workers to ship their final
  /// spans), drains the trailing TraceShards into `on_shard`: one per
  /// worker, or the relayed subtree's per aggregator.
  void shut_down(const net::EvalReportMsg& report,
                 const std::function<void(net::TraceShardMsg&&)>& on_shard);

  /// The live sessions, indexed by peer slot (non-owning).
  std::vector<net::Transport*> transports() const;
  /// Wire-borne P(y) summaries, indexed by client id (empty when the
  /// client count is unknown).
  const std::vector<stats::ResponseSummary>& summaries() const {
    return summaries_;
  }
  bool have_all_summaries() const;

 private:
  bool tree() const { return config_.num_aggs > 0; }

  /// Runs the handshake on one accepted transport and stages the session in
  /// its peer's pending slot (a newer reconnect replaces an older staged
  /// one), its Summary frames in `frames`. Returns the peer slot. Throws
  /// FleetError — naming the peer's address and, once known, its id — on a
  /// missing or malformed frame, or a bad id, topology, client count or
  /// summary; the transport is dropped.
  std::size_t admit(std::unique_ptr<net::Transport> transport,
                    std::vector<net::Frame>& frames);

  FleetConfig config_;
  Acceptor accept_;
  std::vector<std::unique_ptr<net::Transport>> slots_;
  /// Handshaken reconnects staged per peer until reacquire() claims them.
  std::vector<std::unique_ptr<net::Transport>> pending_;
  std::vector<std::size_t> sessions_;  ///< per worker, counted from 1
  std::vector<stats::ResponseSummary> summaries_;
  std::vector<bool> have_summary_;
};

/// Worker side of the handshake: Hello, then one P(y) Summary for each
/// hosted client (id % num_workers == worker_id). False on a failed send.
bool send_worker_hello(net::Transport& transport,
                       const data::FederatedDataset& dataset,
                       std::uint32_t worker_id, std::uint32_t num_workers);

}  // namespace haccs::hier
