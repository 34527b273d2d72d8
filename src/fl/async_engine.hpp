// Asynchronous federated training (buffered aggregation, FedBuff-style).
//
// The paper's engine is synchronous: a round waits for its straggler. The
// async engine removes that barrier — an extension in the direction of
// §IV-C's asynchronous summary updates, and the natural point of comparison
// for any straggler-mitigation scheduler:
//
//   * the server keeps `max_in_flight` clients training concurrently;
//   * each dispatched client trains from the global model version current
//     at dispatch and finishes after its (jittered) simulated latency;
//   * completed updates land in a buffer; every `buffer_size` arrivals the
//     server adds their weighted mean delta to the global model, discounting
//     each update by its staleness: weight ∝ samples / (1 +
//     versions_behind)^kStalenessAlpha;
//   * freed slots are refilled immediately via the ClientSelector (asked
//     for one client at a time, in-flight devices masked unavailable).
//
// Time is a discrete-event simulation over completion events, so the fast
// devices' updates flow at their own pace — with heterogeneous hardware the
// wall-clock win over the synchronous engine is exactly the straggler gap.
//
// The population model is the synchronous engine's (fl::Population: device
// profiles, base latencies, the selector's view, evaluation), as are local
// training (run_local_job), update validation, failure booking and the
// metrics. What is the async engine's own: the event queue, the staleness
// weighting, and one sequential jitter stream in dispatch order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/data/partition.hpp"
#include "src/fl/client.hpp"
#include "src/fl/engine.hpp"
#include "src/fl/history.hpp"
#include "src/fl/selector.hpp"
#include "src/sim/dropout.hpp"
#include "src/sim/faults.hpp"
#include "src/sim/latency.hpp"

namespace haccs::fl {

/// Staleness discount exponent: weight ∝ 1 / (1 + staleness)^alpha.
inline constexpr double kStalenessAlpha = 0.5;

struct AsyncEngineConfig {
  /// Total number of server aggregations (the async analogue of rounds).
  std::size_t aggregations = 200;
  /// Concurrent client trainings the server sustains.
  std::size_t max_in_flight = 10;
  /// Updates buffered per aggregation.
  std::size_t buffer_size = 5;
  LocalTrainConfig local;
  sim::LatencyModelConfig latency;
  /// Evaluate every N aggregations (and at the last one).
  std::size_t eval_every = 5;
  double initial_loss = 2.302585;
  double latency_jitter_sigma = 0.2;
  std::uint64_t seed = 1;
  /// Post-dispatch fault injection. A mid-round crash frees the client's
  /// in-flight slot at the crash instant and triggers immediate re-dispatch;
  /// corrupted updates are rejected before entering the buffer. Disabled by
  /// default — the engine is then bit-identical to the fault-unaware one.
  sim::FaultModelConfig faults{.crash_rate = 0.0};
  /// Update-validation norm bound (0 = reject non-finite only).
  double max_update_norm = 0.0;
};

class AsyncFederatedTrainer {
 public:
  AsyncFederatedTrainer(const data::FederatedDataset& dataset,
                        std::function<nn::Sequential()> model_factory,
                        AsyncEngineConfig config);

  /// Runs the event-driven simulation. Each record corresponds to one
  /// aggregation: epoch = aggregation index, sim_time = event time,
  /// round_duration = time since the previous aggregation, selected = the
  /// clients whose updates were consumed.
  TrainingHistory run(ClientSelector& selector,
                      const sim::DropoutSchedule& dropout);
  TrainingHistory run(ClientSelector& selector);

  const std::vector<sim::DeviceProfile>& profiles() const {
    return population_.profiles();
  }

  const std::vector<float>& final_parameters() const {
    return final_parameters_;
  }

 private:
  const data::FederatedDataset& dataset_;
  std::function<nn::Sequential()> model_factory_;
  AsyncEngineConfig config_;
  Population population_;
  sim::FaultModel fault_model_;
  std::vector<float> final_parameters_;
};

}  // namespace haccs::fl
