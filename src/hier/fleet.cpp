#include "src/hier/fleet.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "src/common/logging.hpp"
#include "src/net/wire.hpp"
#include "src/stats/summary_codec.hpp"

namespace haccs::hier {

namespace {

/// Accept deadline per reacquire() drain: short, since reacquire runs once
/// per round per dead worker on the engine thread.
constexpr int kReacceptTimeoutMs = 200;

FleetError refusal(const std::string& peer, const std::string& why) {
  return FleetError("handshake with " + peer + " refused: " + why);
}

/// Bound on client ids and on a peer's claimed client count.
std::size_t client_limit(const FleetConfig& config) {
  return config.num_clients > 0 ? config.num_clients : SIZE_MAX;
}

/// Decodes one Summary from `who` (e.g. "worker 3") at address `peer`, which
/// may describe only clients of `workers` — its own for a worker, its
/// subtree's for an aggregator. Throws FleetError naming the peer.
std::pair<std::uint32_t, stats::ResponseSummary> check_summary(
    const net::Frame& frame, const FleetConfig& config,
    net::WorkerSlice workers, const std::string& peer, const std::string& who) {
  try {
    const net::SummaryMsg msg = net::decode_summary(frame);
    if (msg.client_id >= client_limit(config)) {
      throw refusal(peer, who + ": summary for unknown client " +
                              std::to_string(msg.client_id));
    }
    if (!workers.contains(config.topology.worker_of(msg.client_id))) {
      // A peer started with the wrong --workers would otherwise overwrite
      // summaries of clients another peer hosts.
      throw refusal(peer, who + ": summary for client " +
                              std::to_string(msg.client_id) +
                              ", which it does not host (check --workers)");
    }
    return {msg.client_id, stats::decode_response_summary(msg)};
  } catch (const net::WireError& e) {
    // A Conditional or empty Summary, or a truncated one.
    throw refusal(peer, std::string("malformed frame: ") + e.what());
  }
}

}  // namespace

Fleet::Fleet(FleetConfig config, Acceptor accept)
    : config_(std::move(config)),
      accept_(std::move(accept)),
      summaries_(config_.num_clients, stats::ResponseSummary(1)),
      have_summary_(config_.num_clients, false) {
  if (!tree()) workers_ = config_.topology.slice(*config_.agg_id);
  const std::size_t peers = tree() ? config_.topology.aggs() : workers_.size();
  slots_.resize(peers);
  pending_.resize(peers);
  sessions_.assign(peers, 0);
}

std::size_t Fleet::admit(std::unique_ptr<net::Transport> transport,
                         std::vector<net::Frame>& frames) {
  const std::string peer = transport->peer();
  const std::string role = tree() ? "aggregator" : "worker";
  net::Frame frame;
  const auto hello_type =
      tree() ? net::MessageType::TopologyHello : net::MessageType::Hello;
  if (transport->recv(&frame, config_.io_timeout_ms) !=
          net::TransportStatus::Ok ||
      frame.type != hello_type) {
    throw refusal(peer, tree() ? "no TopologyHello frame" : "no Hello frame");
  }
  // The peer's id and client count, and the workers it speaks for.
  std::size_t id = 0;
  std::uint32_t num_clients = 0;
  net::WorkerSlice workers;
  const net::Topology& topology = config_.topology;
  try {
    if (tree()) {
      const net::TopologyHelloMsg hello = net::decode_topology_hello(frame);
      if (!topology.announces(hello)) {
        throw refusal(peer,
                      "aggregator topology mismatch (agg " +
                          std::to_string(hello.agg_id) + "/" +
                          std::to_string(hello.num_aggs) + ", workers [" +
                          std::to_string(hello.worker_begin) + ", " +
                          std::to_string(hello.worker_end) +
                          ")) — check --aggs/--workers on every tier");
      }
      id = hello.agg_id;
      num_clients = hello.num_clients;
      workers = topology.slice(id);
    } else {
      const net::HelloMsg hello = net::decode_hello(frame);
      if (!workers_.contains(hello.worker_id)) {
        throw refusal(peer,
                      "bad worker id " + std::to_string(hello.worker_id) +
                          " (expected " + std::to_string(workers_.begin) +
                          ".." + std::to_string(workers_.end - 1) + ")");
      }
      id = hello.worker_id;
      num_clients = hello.num_clients;
      workers = {id, id + 1};
    }
  } catch (const net::WireError& e) {
    // CRC-valid but malformed (e.g. truncated): refuse this peer only.
    throw refusal(peer, std::string("malformed frame: ") + e.what());
  }
  const std::string who = role + " " + std::to_string(id);
  if (num_clients > client_limit(config_)) {
    throw refusal(peer, who + " claims " + std::to_string(num_clients) +
                            " clients of " +
                            std::to_string(config_.num_clients));
  }
  // §IV-A uplink: one P(y) summary per hosted client — sent on the first
  // connect and repeated on every reconnect, so a restarted root rebuilds
  // its view from the fleet alone. Committed only once all arrived.
  std::vector<std::pair<std::uint32_t, stats::ResponseSummary>> received;
  frames.clear();
  for (std::uint32_t s = 0; s < num_clients; ++s) {
    if (transport->recv(&frame, config_.io_timeout_ms) !=
            net::TransportStatus::Ok ||
        frame.type != net::MessageType::Summary) {
      throw refusal(peer, who + ": summary " + std::to_string(s + 1) +
                              " of " + std::to_string(num_clients) +
                              " never arrived");
    }
    received.push_back(check_summary(frame, config_, workers, peer, who));
    frames.push_back(std::move(frame));
  }
  for (auto& [client, summary] : received) {
    // With the count unknown (a mid tier, which relays the frames) the
    // table is empty: growing it to a peer-chosen id could exhaust memory.
    if (client >= summaries_.size()) continue;
    summaries_[client] = std::move(summary);
    have_summary_[client] = true;
  }
  const std::size_t slot = tree() ? id : id - workers_.begin;
  // The chaos seed forks per peer, and per session for workers so a
  // reconnect does not replay its fault script.
  net::ChaosOptions forked = config_.chaos;
  forked.seed = config_.chaos.seed ^ (0xa11ce11aULL * (id + 1)) ^
                (0x5e5510ULL * (tree() ? 0 : ++sessions_[slot]));
  HACCS_INFO << who << " connected (" << peer << "), hosting " << num_clients
             << " client(s)";
  pending_[slot] = net::wrap_chaos(std::move(transport), forked);
  return slot;
}

std::vector<std::vector<net::Frame>> Fleet::accept_all(int accept_timeout_ms) {
  std::vector<std::vector<net::Frame>> summary_frames(slots_.size());
  std::vector<net::Frame> frames;
  for (std::size_t connected = 0; connected < slots_.size(); ++connected) {
    auto transport = accept_(accept_timeout_ms);
    if (!transport) {
      throw FleetError("timed out waiting for " +
                       std::string(tree() ? "aggregator " : "worker ") +
                       std::to_string(connected + 1) + " of " +
                       std::to_string(slots_.size()));
    }
    const std::string peer = transport->peer();
    const std::size_t slot = admit(std::move(transport), frames);
    if (slots_[slot]) {
      // Two peers sharing an id. Dropping the second would let it reconnect
      // with backoff forever, each accept rearming the deadline.
      pending_[slot].reset();
      const std::string role = tree() ? "aggregator" : "worker";
      const std::size_t id = tree() ? slot : workers_.begin + slot;
      throw FleetError("duplicate " + role + " id " + std::to_string(id) +
                       " from " + peer + " — check each " + role + "'s --" +
                       (tree() ? "agg-id" : "worker-id"));
    }
    slots_[slot] = std::move(pending_[slot]);
    summary_frames[slot] = std::move(frames);
  }
  return summary_frames;
}

net::Transport* Fleet::reacquire(std::size_t w) {
  std::vector<net::Frame> frames;  // a mid tier relays only the first ones
  while (auto transport = accept_(kReacceptTimeoutMs)) {
    try {
      admit(std::move(transport), frames);
    } catch (const FleetError& e) {
      HACCS_WARN << "fleet: " << e.what() << "; connection dropped";
    }
  }
  if (w >= pending_.size() || !pending_[w]) return nullptr;
  slots_[w] = std::move(pending_[w]);
  return slots_[w].get();
}

void Fleet::shut_down(
    const net::EvalReportMsg& report,
    const std::function<void(net::TraceShardMsg&&)>& on_shard) {
  for (const auto& t : slots_) {
    if (!t) continue;
    t->send(net::encode_eval_report(report), config_.io_timeout_ms);
    t->send(net::encode_shutdown(), config_.io_timeout_ms);
  }
  if (!report.trace.valid()) return;
  // Late heartbeats are skipped; Closed, any other frame, or the shard
  // quota ends a peer's drain.
  const std::size_t shards_per_peer =
      tree() ? config_.topology.workers_per_agg() : 1;
  for (const auto& t : slots_) {
    if (!t) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
    std::size_t collected = 0;
    while (collected < shards_per_peer &&
           std::chrono::steady_clock::now() < deadline) {
      net::Frame frame;
      const auto status = t->recv(&frame, 250);
      if (status == net::TransportStatus::Closed) break;
      if (status != net::TransportStatus::Ok) continue;
      if (frame.type == net::MessageType::TraceShard) {
        try {
          on_shard(net::decode_trace_shard(frame));
        } catch (const net::WireError& e) {
          HACCS_WARN << "discarding bad trace shard: " << e.what();
        }
        ++collected;
        continue;
      }
      if (frame.type != net::MessageType::Heartbeat) break;
    }
  }
}

std::vector<net::Transport*> Fleet::transports() const {
  std::vector<net::Transport*> out;
  out.reserve(slots_.size());
  for (const auto& t : slots_) out.push_back(t.get());
  return out;
}

bool Fleet::have_all_summaries() const {
  for (bool have : have_summary_) {
    if (!have) return false;
  }
  return true;
}

bool send_worker_hello(net::Transport& transport,
                       const data::FederatedDataset& dataset,
                       std::uint32_t worker_id, std::uint32_t num_workers) {
  const std::vector<std::uint32_t> hosted =
      net::Topology(num_workers)
          .hosted_clients(worker_id, dataset.clients.size());
  if (transport.send(net::encode_hello(net::HelloMsg{
                         worker_id, static_cast<std::uint32_t>(hosted.size())}))
      != net::TransportStatus::Ok) {
    return false;
  }
  for (const std::uint32_t c : hosted) {
    const auto summary = stats::summarize_response(dataset.clients[c].train);
    if (transport.send(net::encode_summary(
            stats::encode_summary_msg(c, summary))) !=
        net::TransportStatus::Ok) {
      return false;
    }
  }
  return true;
}

}  // namespace haccs::hier
