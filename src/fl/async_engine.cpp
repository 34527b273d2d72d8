#include "src/fl/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/fl/dispatch.hpp"
#include "src/obs/events.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

AsyncFederatedTrainer::AsyncFederatedTrainer(
    const data::FederatedDataset& dataset,
    std::function<nn::Sequential()> model_factory, AsyncEngineConfig config)
    : dataset_(dataset),
      model_factory_(std::move(model_factory)),
      config_(config),
      population_(dataset, config.latency, config.seed),
      fault_model_(config.faults) {
  if (dataset_.clients.empty()) {
    throw std::invalid_argument("AsyncFederatedTrainer: no clients");
  }
  if (config_.max_in_flight == 0 ||
      config_.max_in_flight > dataset_.clients.size()) {
    throw std::invalid_argument(
        "AsyncFederatedTrainer: max_in_flight out of range");
  }
  if (config_.buffer_size == 0 ||
      config_.buffer_size > config_.max_in_flight) {
    throw std::invalid_argument(
        "AsyncFederatedTrainer: buffer_size must be in [1, max_in_flight]");
  }
  if (config_.max_update_norm < 0.0) {
    throw std::invalid_argument(
        "AsyncFederatedTrainer: max_update_norm must be >= 0");
  }
}

TrainingHistory AsyncFederatedTrainer::run(ClientSelector& selector) {
  const auto schedule = sim::make_always_available(dataset_.clients.size());
  return run(selector, *schedule);
}

TrainingHistory AsyncFederatedTrainer::run(ClientSelector& selector,
                                           const sim::DropoutSchedule& dropout) {
  if (dropout.num_clients() != dataset_.clients.size()) {
    throw std::invalid_argument("run: dropout schedule arity mismatch");
  }
  nn::Sequential model = model_factory_();
  std::vector<float> global_params = model.get_parameters();
  const std::size_t n = dataset_.clients.size();

  auto view = population_.client_view(config_.initial_loss);
  selector.initialize(view);

  Rng select_rng(config_.seed ^ 0x5e1ec70aULL);
  Rng train_rng(config_.seed ^ 0x7a314e55ULL);
  Rng jitter_rng(config_.seed ^ 0x1a7e2c3dULL);

  // Completion events, earliest first (ties: lowest sequence for
  // determinism).
  struct Event {
    double time;
    std::uint64_t sequence;
    std::size_t client;
    std::size_t base_version;          // aggregation count at dispatch
    std::vector<float> delta;          // local - global_at_dispatch
    double loss;
    bool crashed = false;              // mid-round crash: no update arrives
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> events;

  std::vector<bool> in_flight(n, false);
  std::size_t version = 0;      // aggregations completed
  double now = 0.0;
  std::uint64_t sequence = 0;

  EngineMetrics& metrics = EngineMetrics::get();
  static obs::Histogram& staleness_hist = obs::Registry::global().histogram(
      "async_update_staleness", {0, 1, 2, 4, 8, 16, 32, 64});
  // Plain local SGD with a dense uplink: no compression residual to keep.
  LocalWorkConfig work;
  work.local = config_.local;
  std::vector<float> no_residual;
  // Wall time spent in local training since the last aggregation, for that
  // aggregation's phase breakdown.
  double train_wall_ms = 0.0;

  // Dispatch one client chosen by the selector (in-flight and dropped-out
  // devices masked). Returns false when nobody is dispatchable.
  auto dispatch_one = [&]() -> bool {
    obs::Span dispatch_span("dispatch", "fl");
    const auto mask = dropout.available(version);
    for (std::size_t i = 0; i < n; ++i) {
      view[i].available = mask[i] && !in_flight[i];
    }
    const auto picks = selector.select(1, view, version, select_rng);
    if (picks.empty()) return false;
    const std::size_t id = picks[0];
    HACCS_CHECK_MSG(id < n && view[id].available,
                    "async: selector returned bad client");
    metrics.dispatched.inc();

    // Post-dispatch fault for this (client, aggregation) — pure in the
    // seed, so every strategy faces the same trace.
    sim::FaultEvent fault;
    if (fault_model_.enabled()) fault = fault_model_.at(id, version);

    Event event;
    event.client = id;
    event.base_version = version;
    event.loss = config_.initial_loss;
    // The fork is consumed even for crashed dispatches, keeping the
    // training streams aligned across fault configurations.
    TrainJobSpec job;
    job.client_id = id;
    job.epoch = version;
    job.rng_seed = train_rng.next_u64();
    if (fault.kind == sim::FaultKind::Crash) {
      event.crashed = true;  // dies mid-round; its compute is wasted
    } else {
      // Train now (simulation: result materializes at completion time).
      obs::StopWatch train_clock;
      nn::Sequential local_model = model_factory_();
      const TrainOutcome out =
          run_local_job(job, dataset_.clients[id].train, local_model,
                        global_params, work, no_residual);
      train_wall_ms += train_clock.lap_ms();
      event.loss = out.result.average_loss;
      event.delta.resize(out.updated.size());
      vec::diff(event.delta, out.updated, global_params);
      fault_model_.corrupt(fault, event.delta);
    }
    const double jitter =
        config_.latency_jitter_sigma > 0.0
            ? std::exp(config_.latency_jitter_sigma * jitter_rng.normal())
            : 1.0;
    double latency = view[id].latency_s * jitter;
    if (fault.kind == sim::FaultKind::Straggler) {
      latency *= fault.latency_multiplier;
    } else if (fault.kind == sim::FaultKind::Crash) {
      // The slot frees at the crash instant, not the full round latency.
      latency *= fault.crash_frac;
    }
    event.time = now + latency;
    event.sequence = sequence++;
    in_flight[id] = true;
    events.push(event);
    return true;
  };

  // Fill the initial in-flight set.
  for (std::size_t s = 0; s < config_.max_in_flight; ++s) {
    if (!dispatch_one()) break;
  }

  TrainingHistory history;
  std::vector<Event> buffer;
  double last_aggregation_time = 0.0;
  double last_accuracy = 0.0, last_loss = config_.initial_loss;
  // Failures booked since the last aggregation, carried into its record.
  RoundRecord pending;
  std::size_t arrived_since = 0;
  auto fail = [&](std::size_t client, FailureKind kind) {
    book_failure(pending, client, kind);
    selector.report_failure(client, version, kind);
  };

  while (version < config_.aggregations && !events.empty()) {
    Event event = events.top();
    events.pop();
    now = event.time;
    in_flight[event.client] = false;
    if (event.crashed) {
      // Crash event: the in-flight slot is freed at the crash instant and
      // the refill below re-dispatches immediately.
      fail(event.client, FailureKind::Crash);
    } else if (!update_is_valid(event.delta, config_.max_update_norm)) {
      fail(event.client, FailureKind::CorruptUpdate);
    } else {
      ++arrived_since;
      view[event.client].last_loss = event.loss;
      selector.report_result(event.client, event.loss, version);
      buffer.push_back(std::move(event));
    }

    if (buffer.size() >= config_.buffer_size) {
      // Staleness-weighted buffered aggregation.
      obs::Span aggregate_span("aggregate", "fl");
      obs::StopWatch aggregate_clock;
      std::vector<double> accumulated(global_params.size(), 0.0);
      double total_weight = 0.0;
      RoundRecord record = std::move(pending);
      pending = RoundRecord{};
      for (const auto& update : buffer) {
        const double staleness =
            static_cast<double>(version - update.base_version);
        staleness_hist.observe(staleness);
        const double weight =
            static_cast<double>(dataset_.clients[update.client].train.size()) /
            std::pow(1.0 + staleness, kStalenessAlpha);
        vec::accumulate_scaled(accumulated, update.delta, weight);
        total_weight += weight;
        record.selected.push_back(update.client);
      }
      buffer.clear();
      for (std::size_t p = 0; p < global_params.size(); ++p) {
        global_params[p] +=
            static_cast<float>(accumulated[p] / total_weight);
      }
      ++version;
      record.phase.train_ms = train_wall_ms;
      train_wall_ms = 0.0;
      record.phase.aggregate_ms = aggregate_clock.lap_ms();

      record.epoch = version - 1;
      record.sim_time_s = now;
      record.round_duration_s = now - last_aggregation_time;
      last_aggregation_time = now;
      record.dispatched =
          arrived_since + record.crashed.size() + record.rejected.size();
      arrived_since = 0;

      const bool eval_now = (version - 1) % config_.eval_every == 0 ||
                            version == config_.aggregations;
      if (eval_now) {
        obs::Span eval_span("evaluate", "fl");
        obs::StopWatch eval_clock;
        model.set_parameters(global_params);
        const auto eval = population_.evaluate(model);
        last_accuracy = eval.accuracy;
        last_loss = eval.loss;
        record.phase.evaluate_ms = eval_clock.lap_ms();
      }
      record.global_accuracy = last_accuracy;
      record.global_loss = last_loss;
      metrics.rounds.inc();
      if (obs::events_enabled()) {
        obs::RunEventLog::global().emit(round_event_json("async", record));
      }
      history.add(std::move(record));
    }

    // Refill freed capacity.
    std::size_t active = 0;
    for (bool f : in_flight) {
      if (f) ++active;
    }
    while (active + buffer.size() < config_.max_in_flight) {
      if (!dispatch_one()) break;
      ++active;
    }
  }

  final_parameters_ = std::move(global_params);
  return history;
}

}  // namespace haccs::fl
