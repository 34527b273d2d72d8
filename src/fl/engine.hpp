// The federated training round engine.
//
// Orchestrates one full simulated FL run (paper §II-A system model):
//   per epoch: dropout mask -> selector picks k clients -> each selected
//   client trains locally from the global parameters -> weighted FedAvg
//   aggregation -> the simulated clock advances by the straggler's latency
//   -> periodic global evaluation over every client's local test set.
//
// Everything stochastic is derived from EngineConfig::seed, so two runs with
// different selectors but the same seed see identical device profiles,
// dropout masks, and data — isolating the selection strategy as the only
// difference, exactly as the paper's methodology requires.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/data/partition.hpp"
#include "src/fl/checkpoint.hpp"
#include "src/fl/client.hpp"
#include "src/fl/compression.hpp"
#include "src/fl/dispatch.hpp"
#include "src/fl/fedprox.hpp"
#include "src/fl/history.hpp"
#include "src/fl/selector.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/dropout.hpp"
#include "src/sim/faults.hpp"
#include "src/sim/latency.hpp"
#include "src/sim/profile.hpp"

namespace haccs::fl {

/// How selected clients compute their local update.
enum class LocalAlgorithm {
  FedAvg,   ///< plain local SGD (the paper's training path)
  FedProx,  ///< proximal objective + latency-scaled partial work (§VI)
};

struct EngineConfig {
  std::size_t rounds = 200;
  std::size_t clients_per_round = 10;
  LocalTrainConfig local;
  LocalAlgorithm algorithm = LocalAlgorithm::FedAvg;
  /// Uplink update compression (None = ship dense float32 updates). The
  /// latency model prices the compressed uplink, so compression directly
  /// shortens slow clients' rounds.
  CompressionConfig compression;
  /// FedProx proximal coefficient (used when algorithm == FedProx).
  double fedprox_mu = 0.01;
  sim::LatencyModelConfig latency;
  /// Evaluate the global model every `eval_every` rounds (and on the final
  /// round). Evaluation reads every client's local test set.
  std::size_t eval_every = 5;
  /// Loss value assumed for clients never yet trained (ln(10) ~ the initial
  /// cross-entropy of a 10-class model).
  double initial_loss = 2.302585;
  /// Log-normal per-round latency jitter: each client's latency this round
  /// is base * exp(sigma * z) with z ~ N(0,1) drawn per (client, epoch).
  /// Real testbeds (the paper's included) see exactly this fluctuation from
  /// network and load variation; it is what rotates the "fastest device in
  /// the cluster" over time (§IV-E). 0 disables.
  double latency_jitter_sigma = 0.2;
  std::uint64_t seed = 1;
  /// Post-dispatch fault injection (crashes, corruption, straggler tails).
  /// Disabled by default; with it disabled and overcommit == 0 the engine is
  /// bit-identical to the fault-unaware engine for the same seed.
  sim::FaultModelConfig faults{.crash_rate = 0.0};
  /// Over-selection: dispatch ceil(clients_per_round * (1 + overcommit))
  /// clients (clamped to the population) and aggregate whatever lands before
  /// the deadline. 0 disables — exactly clients_per_round are dispatched.
  double overcommit = 0.0;
  /// Round deadline, as a quantile of the dispatched clients' effective
  /// latencies this round; updates arriving later are discarded (wasted
  /// work) and the server stops waiting at the deadline. 0 disables — the
  /// round waits for its straggler, the classic synchronous semantics.
  double deadline_quantile = 0.0;
  /// Reject updates whose parameter-delta L2 norm exceeds this bound
  /// (0 = no norm bound). Non-finite (NaN/Inf) deltas are always rejected —
  /// a rejected update is logged and skipped, never aggregated.
  double max_update_norm = 0.0;
  /// Per-client circuit breaker: a client whose dispatches fail (crash or
  /// corrupt update) this many consecutive times is quarantined for an
  /// exponentially growing number of epochs.
  sim::CircuitBreaker::Config breaker;
  /// Invoked at the start of every epoch, before selection. Used by drift
  /// experiments to mutate client data mid-training (§IV-C's changing
  /// distributions) — the engine reads datasets afresh each round.
  std::function<void(std::size_t epoch)> on_epoch_begin;
  /// Where local training runs (non-owning; must outlive the trainer's run).
  /// nullptr = in-process on the thread pool, bit-identical to the classic
  /// engine. Point at a fl::TransportDispatcher (net_driver.hpp) to route
  /// rounds through a net::Transport — loopback threads or TCP processes.
  RoundDispatcher* dispatcher = nullptr;
  /// Materializes the full resumable state (checkpoint.hpp) for the round
  /// that just completed. Calling it is what costs: a deep copy of the
  /// parameters, the selector blob, and the whole record history so far.
  using RunStateFactory = std::function<RunState()>;
  /// Crash-resume hook: invoked after every completed round with the epoch
  /// the next round would run and a factory for the resumable state.
  /// Callers decide cadence and persistence (e.g. save_run_state every Nth
  /// round); rounds whose hook never calls the factory pay nothing, so a
  /// cadenced checkpointer is O(history) per save, not per round. Unset =
  /// no checkpointing, zero overhead.
  std::function<void(std::size_t next_epoch, const RunStateFactory&)>
      on_checkpoint;
  /// Graceful-drain hook: polled at the start of every round; returning
  /// true ends the run after the last completed round (the history simply
  /// stops early). Lets a serving loop drain on SIGTERM instead of dying
  /// mid-round. Unset = run all rounds.
  std::function<bool()> stop_requested;
};

/// Minimum work fraction a straggler performs under FedProx.
inline constexpr double kFedProxMinWork = 0.3;

/// The checks FederatedTrainer makes of its config for a federation of
/// `num_clients`: throws std::invalid_argument naming the first field out
/// of range, or faults.corruption_rate on a pre-aggregating dispatcher
/// (corruption mangles a raw update, and such a dispatcher returns none).
/// Callable before any data exists.
void check_engine_config(const EngineConfig& config, std::size_t num_clients);

/// The simulated federation both engines train over (paper §II-A): the
/// clients' data, one device profile per client, the latency model that
/// prices a round, and the population-wide evaluation. Profiles come from
/// their own stream of `seed`, so a seed assigns the same hardware in both
/// engines and adding rounds never changes it.
class Population {
 public:
  /// `upload_bytes` > 0 prices a compressed uplink of that many bytes
  /// against a latency.model_bytes downlink; 0 prices the dense round.
  Population(const data::FederatedDataset& dataset,
             const sim::LatencyModelConfig& latency, std::uint64_t seed,
             std::size_t upload_bytes = 0);

  const std::vector<sim::DeviceProfile>& profiles() const { return profiles_; }

  /// Base (expected) round latency of client i (profile + local data size).
  double base_latency(std::size_t i) const;

  /// The runtime view handed to selectors: every client available at its
  /// base latency, with `initial_loss` as its last loss.
  std::vector<ClientRuntimeInfo> client_view(double initial_loss) const;

  struct Eval {
    double accuracy = 0.0;
    double loss = 0.0;
  };
  /// Mean test accuracy and loss of `model` over every client, unavailable
  /// ones included ("the average test accuracy on all devices"). Clients
  /// evaluate in parallel through the const inference path; the reduction
  /// runs in client order, so the result does not depend on worker timing.
  /// `per_client`, when set, receives each client's accuracy.
  Eval evaluate(nn::Sequential& model,
                std::vector<double>* per_client = nullptr) const;

 private:
  const data::FederatedDataset& dataset_;
  sim::LatencyModel latency_model_;
  std::size_t upload_bytes_;
  std::vector<sim::DeviceProfile> profiles_;
};

/// Telemetry instruments both engines record into (one process-global
/// registry; snapshots aggregate across runs).
struct EngineMetrics {
  obs::Counter& rounds = obs::Registry::global().counter("rounds_total");
  obs::Counter& dispatched =
      obs::Registry::global().counter("clients_dispatched_total");
  obs::Counter& crashed =
      obs::Registry::global().counter("clients_crashed_total");
  obs::Counter& late = obs::Registry::global().counter("clients_late_total");
  obs::Counter& rejected =
      obs::Registry::global().counter("updates_rejected_total");
  obs::Counter& evaluations =
      obs::Registry::global().counter("evaluations_total");
  obs::Histogram& round_ms =
      obs::Registry::global().histogram("round_wall_ms");

  static EngineMetrics& get();
};

/// Books one failed dispatch on `record`, the same way in both engines:
/// Crash → `crashed`, Timeout → `late`, CorruptUpdate → `rejected`, each
/// with its trace instant and counter. The caller reports it to the
/// selector.
void book_failure(RoundRecord& record, std::size_t client, FailureKind kind);

class FederatedTrainer {
 public:
  /// `model_factory` must return an identically-initialized model on every
  /// call (capture a fixed seed inside). The trainer samples one device
  /// profile per client from `config.seed`.
  FederatedTrainer(const data::FederatedDataset& dataset,
                   std::function<nn::Sequential()> model_factory,
                   EngineConfig config);

  /// Runs a full training simulation with the given strategy and
  /// availability schedule. Each call starts from a fresh model and clock.
  TrainingHistory run(ClientSelector& selector,
                      const sim::DropoutSchedule& dropout);

  /// Convenience overload with no dropout.
  TrainingHistory run(ClientSelector& selector);

  /// Crash-resume entry point: restores `resume` (epoch cursor, parameters,
  /// RNG streams, clock, breaker and selector state, prior records) and
  /// runs the remaining rounds. The returned history contains ALL rounds —
  /// restored plus newly executed — and is bit-identical to an
  /// uninterrupted run's history modulo wall-clock phase timings. `resume`
  /// must come from a run with the same dataset, config, and selector type;
  /// nullptr behaves exactly like the plain overload.
  TrainingHistory run(ClientSelector& selector,
                      const sim::DropoutSchedule& dropout,
                      const RunState* resume);

  const std::vector<sim::DeviceProfile>& profiles() const {
    return population_.profiles();
  }

  /// Base (expected) round latency of client i (profile + local data size).
  double client_latency(std::size_t i) const {
    return population_.base_latency(i);
  }

  /// Latency of client i in a specific epoch, including the seeded
  /// log-normal jitter. Pure function of (config.seed, epoch, i).
  double client_latency_at(std::size_t i, std::size_t epoch) const;

  /// Per-client test accuracy of the most recent run's final model.
  const std::vector<double>& final_per_client_accuracy() const {
    return final_per_client_accuracy_;
  }

  /// Flat global parameters after the most recent run (empty before any
  /// run). Pair with the same model factory to reconstruct the model, or
  /// write with nn::save_parameters via a factory-built model.
  const std::vector<float>& final_parameters() const {
    return final_parameters_;
  }

  /// The runtime view handed to selectors (all-available mask) — exposed so
  /// selection strategies can be initialized/tested without a full run.
  std::vector<ClientRuntimeInfo> make_client_view() const;

 private:
  const data::FederatedDataset& dataset_;
  std::function<nn::Sequential()> model_factory_;
  EngineConfig config_;
  Population population_;
  sim::FaultModel fault_model_;
  std::vector<double> final_per_client_accuracy_;
  std::vector<float> final_parameters_;
};

/// The local-training recipe `config` orders for every selected client —
/// what the in-process dispatcher runs and what a TrainJob carries.
LocalWorkConfig local_work_config(const EngineConfig& config);

/// Server-side update validation: true when every element of `delta` is
/// finite and (when max_norm > 0) its L2 norm is within max_norm. Both
/// engines call this before aggregation so a corrupted or diverged client
/// cannot poison the global model.
bool update_is_valid(std::span<const float> delta, double max_norm);

}  // namespace haccs::fl
