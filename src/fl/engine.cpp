#include "src/fl/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>

#include "src/common/error.hpp"
#include "src/common/logging.hpp"
#include "src/common/threadpool.hpp"
#include "src/fl/protocol.hpp"
#include "src/obs/events.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

namespace {
/// What the server waits on a slot that fails with `kind`: it gives up on a
/// late client at the deadline (or, with none armed, when the update would
/// have landed), hears of a crash when the connection drops — crash_frac of
/// the way through, never past the deadline — and receives a corrupt update
/// in full.
double failure_wait(FailureKind kind, double latency, double crash_frac,
                    double deadline) {
  switch (kind) {
    case FailureKind::Timeout:
      return deadline > 0.0 ? deadline : latency;
    case FailureKind::Crash: {
      const double observed = crash_frac * latency;
      return deadline > 0.0 ? std::min(observed, deadline) : observed;
    }
    case FailureKind::CorruptUpdate:
      break;
  }
  return latency;
}

/// Uplink payload under `compression`, for the latency model (0 = dense;
/// the parameter count comes from one throwaway factory build).
std::size_t upload_bytes(const std::function<nn::Sequential()>& model_factory,
                         const CompressionConfig& compression) {
  if (compression.kind == CompressionKind::None) return 0;
  return compressed_wire_bytes(model_factory().parameter_count(), compression);
}
}  // namespace

EngineMetrics& EngineMetrics::get() {
  static EngineMetrics metrics;
  return metrics;
}

void book_failure(RoundRecord& record, std::size_t client, FailureKind kind) {
  EngineMetrics& metrics = EngineMetrics::get();
  switch (kind) {
    case FailureKind::Crash:
      record.crashed.push_back(client);
      obs::instant("client_crash", "fault");
      metrics.crashed.inc();
      break;
    case FailureKind::Timeout:
      record.late.push_back(client);
      obs::instant("client_late", "fault");
      metrics.late.inc();
      break;
    case FailureKind::CorruptUpdate:
      record.rejected.push_back(client);
      obs::instant("update_rejected", "fault");
      metrics.rejected.inc();
      break;
  }
}

void check_engine_config(const EngineConfig& config,
                         std::size_t num_clients) {
  if (num_clients == 0) {
    throw std::invalid_argument("FederatedTrainer: no clients");
  }
  if (config.clients_per_round == 0 ||
      config.clients_per_round > num_clients) {
    throw std::invalid_argument(
        "FederatedTrainer: clients_per_round (" +
        std::to_string(config.clients_per_round) + ") must lie in [1, " +
        std::to_string(num_clients) + "], the client count");
  }
  if (config.eval_every == 0) {
    throw std::invalid_argument("FederatedTrainer: eval_every must be > 0");
  }
  if (config.overcommit < 0.0) {
    throw std::invalid_argument("FederatedTrainer: overcommit must be >= 0");
  }
  if (config.deadline_quantile < 0.0 || config.deadline_quantile > 1.0) {
    throw std::invalid_argument(
        "FederatedTrainer: deadline_quantile must be in [0, 1]");
  }
  if (config.max_update_norm < 0.0) {
    throw std::invalid_argument(
        "FederatedTrainer: max_update_norm must be >= 0");
  }
  if (config.faults.corruption_rate > 0.0 && config.dispatcher != nullptr &&
      config.dispatcher->partials() != nullptr) {
    throw std::invalid_argument(
        "FederatedTrainer: faults.corruption_rate needs raw updates, and "
        "this dispatcher pre-aggregates them (grouped or tree aggregation)");
  }
}

Population::Population(const data::FederatedDataset& dataset,
                       const sim::LatencyModelConfig& latency,
                       std::uint64_t seed, std::size_t upload_bytes)
    : dataset_(dataset),
      latency_model_(latency),
      upload_bytes_(upload_bytes),
      evaluator_([&dataset] {
        std::vector<const data::Dataset*> tests;
        tests.reserve(dataset.clients.size());
        for (const auto& client : dataset.clients) tests.push_back(&client.test);
        return tests;
      }()) {
  Rng profile_rng(seed ^ 0xdeadbeefcafef00dULL);
  profiles_.reserve(dataset_.clients.size());
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    profiles_.push_back(sim::DeviceProfile::sample(profile_rng));
  }
}

double Population::base_latency(std::size_t i) const {
  if (i >= profiles_.size()) {
    throw std::out_of_range("client_latency: bad client id");
  }
  const std::size_t samples = dataset_.clients[i].train.size();
  if (upload_bytes_ > 0) {
    return latency_model_.round_latency_asymmetric(
        profiles_[i], samples, latency_model_.config().model_bytes,
        upload_bytes_);
  }
  return latency_model_.round_latency(profiles_[i], samples);
}

std::vector<ClientRuntimeInfo> Population::client_view(
    double initial_loss) const {
  std::vector<ClientRuntimeInfo> view;
  view.reserve(dataset_.clients.size());
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    ClientRuntimeInfo info;
    info.id = i;
    info.latency_s = base_latency(i);
    info.num_samples = dataset_.clients[i].train.size();
    info.last_loss = initial_loss;
    info.available = true;
    view.push_back(info);
  }
  return view;
}

Population::Eval Population::evaluate(nn::Sequential& model,
                                      std::vector<double>* per_client) const {
  Eval eval;
  if (per_client) per_client->assign(dataset_.clients.size(), 0.0);
  const std::vector<EvalResult> results = evaluator_.evaluate(model);
  for (std::size_t i = 0; i < results.size(); ++i) {
    eval.accuracy += results[i].accuracy;
    eval.loss += results[i].loss;
    if (per_client) (*per_client)[i] = results[i].accuracy;
  }
  const auto n = static_cast<double>(dataset_.clients.size());
  eval.accuracy /= n;
  eval.loss /= n;
  EngineMetrics::get().evaluations.inc();
  return eval;
}

FederatedTrainer::FederatedTrainer(const data::FederatedDataset& dataset,
                                   std::function<nn::Sequential()> model_factory,
                                   EngineConfig config)
    : dataset_(dataset),
      model_factory_(std::move(model_factory)),
      config_(config),
      population_(dataset, config.latency, config.seed,
                  upload_bytes(model_factory_, config.compression)),
      fault_model_(config.faults) {
  check_engine_config(config_, dataset_.clients.size());
}

double FederatedTrainer::client_latency_at(std::size_t i,
                                           std::size_t epoch) const {
  const double base = client_latency(i);
  if (config_.latency_jitter_sigma <= 0.0) return base;
  // One fresh generator per (seed, epoch, client): order-independent and
  // identical across strategies, like the dropout draws.
  Rng rng(config_.seed ^ (0x9e3779b97f4a7c15ULL * (epoch + 1)) ^
          (0xc2b2ae3d27d4eb4fULL * (i + 1)));
  return base * std::exp(config_.latency_jitter_sigma * rng.normal());
}

std::vector<ClientRuntimeInfo> FederatedTrainer::make_client_view() const {
  return population_.client_view(config_.initial_loss);
}

TrainingHistory FederatedTrainer::run(ClientSelector& selector) {
  const auto schedule = sim::make_always_available(dataset_.clients.size());
  return run(selector, *schedule);
}

TrainingHistory FederatedTrainer::run(ClientSelector& selector,
                                      const sim::DropoutSchedule& dropout) {
  return run(selector, dropout, nullptr);
}

TrainingHistory FederatedTrainer::run(ClientSelector& selector,
                                      const sim::DropoutSchedule& dropout,
                                      const RunState* resume) {
  if (dropout.num_clients() != dataset_.clients.size()) {
    throw std::invalid_argument("run: dropout schedule arity mismatch");
  }
  nn::Sequential model = model_factory_();
  std::vector<float> global_params = model.get_parameters();

  auto view = make_client_view();
  selector.initialize(view);

  // Where this run's local training executes. The default in-process
  // dispatcher is created per run (its compression residuals start clean,
  // like the engine's old per-run residual table).
  InProcessDispatcher default_dispatcher(dataset_, model_factory_,
                                         local_work_config(config_));
  RoundDispatcher* dispatcher =
      config_.dispatcher ? config_.dispatcher : &default_dispatcher;

  // Separate streams: selection randomness must not perturb training
  // randomness (and vice versa) so strategies stay comparable.
  Rng select_rng(config_.seed ^ 0x5e1ec70aULL);
  Rng train_rng(config_.seed ^ 0x7a314e55ULL);

  TrainingHistory history;
  sim::SimClock clock;
  double last_accuracy = 0.0;
  double last_loss = config_.initial_loss;

  // Over-selection target: how many clients each round dispatches. Clamped
  // to the population so short federations proceed with a short round
  // instead of failing.
  std::size_t dispatch_target = config_.clients_per_round;
  if (config_.overcommit > 0.0) {
    dispatch_target = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(static_cast<double>(config_.clients_per_round) *
                      (1.0 + config_.overcommit))),
        dataset_.clients.size());
  }
  const bool faults_on = fault_model_.enabled();
  std::vector<sim::CircuitBreaker> breakers(
      dataset_.clients.size(), sim::CircuitBreaker(config_.breaker));

  EngineMetrics& metrics = EngineMetrics::get();

  // Crash-resume: restore everything the loop below accumulates, so the
  // remaining epochs replay bit-identically to an uninterrupted run.
  std::size_t start_epoch = 0;
  if (resume != nullptr) {
    if (resume->client_last_loss.size() != dataset_.clients.size() ||
        resume->breakers.size() != dataset_.clients.size()) {
      throw std::invalid_argument("run: checkpoint population mismatch");
    }
    if (resume->global_params.size() != global_params.size()) {
      throw std::invalid_argument("run: checkpoint model-shape mismatch");
    }
    if (resume->next_epoch > config_.rounds) {
      throw std::invalid_argument("run: checkpoint beyond configured rounds");
    }
    start_epoch = resume->next_epoch;
    global_params = resume->global_params;
    select_rng.set_state(resume->select_rng);
    train_rng.set_state(resume->train_rng);
    clock.set_now(resume->sim_time_s);
    last_accuracy = resume->last_accuracy;
    last_loss = resume->last_loss;
    for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
      view[i].last_loss = resume->client_last_loss[i];
      breakers[i].restore(resume->breakers[i]);
    }
    if (!resume->selector_state.empty()) {
      selector.load_state(resume->selector_state);
    }
    for (const RoundRecord& rec : resume->records) history.add(rec);
  }

  // Snapshot of the loop state after the round that just completed —
  // materialized only when an on_checkpoint hook asks for it.
  auto make_run_state = [&](std::size_t next_epoch) {
    RunState state;
    state.next_epoch = next_epoch;
    state.sim_time_s = clock.now();
    state.last_accuracy = last_accuracy;
    state.last_loss = last_loss;
    state.global_params = global_params;
    state.select_rng = select_rng.state();
    state.train_rng = train_rng.state();
    state.client_last_loss.reserve(view.size());
    for (const auto& info : view) {
      state.client_last_loss.push_back(info.last_loss);
    }
    state.breakers.reserve(breakers.size());
    for (const auto& b : breakers) state.breakers.push_back(b.snapshot());
    state.selector_state = selector.save_state();
    state.records = history.records();
    for (RoundRecord& rec : state.records) rec.phase = PhaseTimings{};
    return state;
  };

  // Model-sized round buffers, owned here so they outlive every round:
  // resized each round, they allocate only while the first rounds size
  // them. Each slot's outcome keeps its `updated` vector (the in-process
  // dispatcher trains into it, and the fold leaves the delta there), the
  // fold keeps its f64 sum, and `delta` is the corruption scratch.
  std::vector<TrainOutcome> outcomes;
  std::vector<FoldSlot> fold_slots;
  PartialAggregate folded;
  std::vector<float> delta;

  for (std::size_t epoch = start_epoch; epoch < config_.rounds; ++epoch) {
    if (config_.stop_requested && config_.stop_requested()) {
      HACCS_INFO << "engine: stop requested, draining after epoch " << epoch;
      break;
    }
    obs::Span round_span("round", "fl");
    // Publish this round's context (§5i) so the transport dispatcher can
    // stamp outgoing TrainJobs and workers can parent their local_train
    // spans under this round span across the process boundary.
    if (obs::trace_enabled()) {
      obs::set_round_context({obs::process_trace_id(), round_span.id(),
                              static_cast<std::int64_t>(epoch)});
    }
    obs::StopWatch phase_clock;   // lap per phase -> RoundRecord::phase
    obs::StopWatch round_clock;   // whole-round wall time
    obs::FaultMeter round_faults;  // the round's minor page faults
    PhaseTimings phase;

    if (config_.on_epoch_begin) config_.on_epoch_begin(epoch);
    std::vector<std::size_t> dispatched;
    {
      obs::Span span("selection", "fl");
      const auto mask = dropout.available(epoch);
      for (std::size_t i = 0; i < view.size(); ++i) {
        // Quarantined clients (tripped breaker) are masked like dropouts.
        view[i].available = mask[i] && breakers[i].allows(epoch);
        view[i].latency_s = client_latency_at(i, epoch);
      }

      auto selected =
          selector.select(dispatch_target, view, epoch, select_rng);

      // Engine-enforced invariants: distinct, in-range, available.
      std::unordered_set<std::size_t> seen;
      for (std::size_t id : selected) {
        HACCS_CHECK_MSG(id < view.size(), "selector returned bad client id");
        HACCS_CHECK_MSG(view[id].available,
                        "selector returned unavailable client");
        if (seen.insert(id).second) dispatched.push_back(id);
      }
      HACCS_CHECK_MSG(dispatched.size() <= dispatch_target,
                      "selector returned too many clients");
    }
    phase.selection_ms = phase_clock.lap_ms();

    // Post-dispatch fault trace for this round: each slot's effective
    // latency (straggler excursions applied) and simulated fault.
    const std::size_t n_dispatched = dispatched.size();
    std::vector<sim::FaultEvent> faults(n_dispatched);
    std::vector<double> eff_latency(n_dispatched);
    for (std::size_t i = 0; i < n_dispatched; ++i) {
      eff_latency[i] = view[dispatched[i]].latency_s;
      if (faults_on) {
        faults[i] = fault_model_.at(dispatched[i], epoch);
        if (faults[i].kind == sim::FaultKind::Straggler) {
          eff_latency[i] *= faults[i].latency_multiplier;
        }
      }
    }
    // Deadline: the configured quantile of this round's dispatched effective
    // latencies. The server stops waiting there; later arrivals are wasted.
    double deadline = 0.0;
    if (config_.deadline_quantile > 0.0 && n_dispatched > 0) {
      std::vector<double> sorted(eff_latency);
      std::sort(sorted.begin(), sorted.end());
      const auto idx = static_cast<std::size_t>(
          config_.deadline_quantile * static_cast<double>(sorted.size() - 1));
      deadline = sorted[idx];
    }
    phase.dispatch_ms = phase_clock.lap_ms();
    metrics.dispatched.inc(n_dispatched);

    RoundRecord record;
    record.epoch = epoch;
    record.dispatched = n_dispatched;
    record.deadline_s = deadline;

    std::vector<double> observed_times;  // what the server waits for
    if (n_dispatched > 0) {
      // Fastest dispatched latency anchors FedProx work scaling (planned
      // work uses base latencies — straggler excursions are unforeseen).
      double min_latency = view[dispatched.front()].latency_s;
      for (std::size_t id : dispatched) {
        min_latency = std::min(min_latency, view[id].latency_s);
      }
      // Fork the per-client training streams serially (deterministic order).
      // A client the fault trace crashes or makes miss the deadline never
      // delivers: its outcome is settled as undelivered here and it gets no
      // job (its fork is still consumed, keeping the streams aligned across
      // fault configurations). The rest go to the dispatcher — thread pool,
      // loopback workers, or TCP peers, all computing the same update.
      outcomes.resize(n_dispatched);
      for (TrainOutcome& outcome : outcomes) outcome.reset();
      std::vector<TrainJobSpec> jobs;
      jobs.reserve(n_dispatched);
      for (std::size_t i = 0; i < n_dispatched; ++i) {
        const std::uint64_t job_seed = train_rng.next_u64();
        if (faults[i].kind == sim::FaultKind::Crash) {
          outcomes[i].failure = FailureKind::Crash;
          continue;
        }
        if (deadline > 0.0 && eff_latency[i] > deadline) {
          outcomes[i].failure = FailureKind::Timeout;
          continue;
        }
        const std::size_t id = dispatched[i];
        TrainJobSpec job;
        job.slot = i;
        job.client_id = id;
        job.epoch = epoch;
        job.rng_seed = job_seed;
        if (config_.algorithm == LocalAlgorithm::FedProx) {
          job.work_fraction = fedprox_work_fraction(
              view[id].latency_s / std::max(min_latency, 1e-9),
              kFedProxMinWork);
        }
        jobs.push_back(job);
      }
      obs::Span train_span("local_train_round", "fl");
      dispatcher->execute(jobs, global_params, outcomes);
      phase.train_ms = phase_clock.lap_ms();

      // Settle the round. Simulated wire corruption first, serially in
      // slot order; then every raw update is validated and folded into
      // `folded` on the thread pool (a pre-aggregating dispatcher already
      // folded its own with the same function); then every slot is booked
      // in dispatch order, so the global model and the selector's report
      // sequence are independent of worker timing. Whatever failed —
      // simulated, on the wire, or in validation — is booked by one
      // failure path.
      obs::Span aggregate_span("aggregate", "fl");
      fold_slots.assign(n_dispatched, FoldSlot{});
      for (std::size_t i = 0; i < n_dispatched; ++i) {
        TrainOutcome& outcome = outcomes[i];
        if (!outcome.delivered || outcome.pre_aggregated) continue;
        std::vector<float>& updated = outcome.updated;
        if (faults[i].kind == sim::FaultKind::Corruption) {
          // Wire-level corruption: mangle the delta the server receives
          // (client-side state, e.g. compression residuals, stays clean).
          delta.resize(updated.size());
          vec::diff(delta, updated, global_params);
          fault_model_.corrupt(faults[i], delta);
          for (std::size_t p = 0; p < updated.size(); ++p) {
            updated[p] = global_params[p] + delta[p];
          }
        }
        fold_slots[i].updated = updated;
        fold_slots[i].weight =
            static_cast<double>(dataset_.clients[dispatched[i]].train.size());
      }
      // Each accepted update is left as its delta, for report_update.
      fold_updates(fold_slots, global_params, std::span(&folded, 1),
                   config_.max_update_norm, /*leave_deltas=*/true);
      double total_weight = 0.0;
      std::size_t arrived_updates = 0;  // frames received (incl. corrupt)
      for (std::size_t i = 0; i < n_dispatched; ++i) {
        const std::size_t id = dispatched[i];
        TrainOutcome& outcome = outcomes[i];
        const bool raw = outcome.delivered && !outcome.pre_aggregated;
        if (raw && !fold_slots[i].accepted) {
          HACCS_DEBUG << selector.name() << " epoch " << epoch
                      << " rejected invalid update from client " << id;
          outcome.delivered = false;
          outcome.failure = FailureKind::CorruptUpdate;
        }
        // A frame arrived (it counts as uplink) unless the client crashed
        // or was given up on; a corrupt frame arrived but its payload died.
        if (outcome.delivered ||
            outcome.failure == FailureKind::CorruptUpdate) {
          ++arrived_updates;
        }
        if (!outcome.delivered) {
          observed_times.push_back(failure_wait(
              outcome.failure, eff_latency[i], faults[i].crash_frac, deadline));
          book_failure(record, id, outcome.failure);
          if (outcome.failure != FailureKind::Timeout) {
            breakers[id].record_failure(epoch);
          }
          selector.report_failure(id, epoch, outcome.failure);
          continue;
        }
        observed_times.push_back(eff_latency[i]);
        total_weight += static_cast<double>(dataset_.clients[id].train.size());
        view[id].last_loss = outcome.result.average_loss;
        breakers[id].record_success();
        selector.report_result(id, outcome.result.average_loss, epoch);
        if (raw) selector.report_update(id, outcome.updated, epoch);  // delta
        record.selected.push_back(id);
      }
      std::vector<double>& accumulated = folded.sum;
      double folded_weight = folded.weight;
      const std::vector<PartialAggregate>* parts = dispatcher->partials();
      if (parts != nullptr) {
        // Grouped / hierarchical aggregation: the per-group partial sums
        // merge into the accumulator in group order, below. Per element
        // this is the identical f64 add sequence no matter which tier
        // performed the group folds, so tree and flat grouped runs
        // converge bitwise. (The zero fill reuses the sum's storage.)
        if (accumulated.empty()) accumulated.assign(global_params.size(), 0.0);
        for (const PartialAggregate& part : *parts) {
          folded_weight += part.weight;
          HACCS_CHECK_MSG(
              part.sum.empty() || part.sum.size() == accumulated.size(),
              "partial aggregate has wrong parameter count");
        }
      }
      // Integer sample-count weights sum exactly in f64, so any mismatch
      // is a real bookkeeping bug, not rounding.
      HACCS_CHECK_MSG(folded_weight == total_weight,
                      "folded weights disagree with the engine");
      if (total_weight > 0.0) {
        const std::span<const PartialAggregate> merged =
            parts ? std::span<const PartialAggregate>(*parts)
                  : std::span<const PartialAggregate>();
        parallel_for_ranges(
            global_params.size(), kFoldRange,
            [&](std::size_t lo, std::size_t hi) {
              for (const PartialAggregate& part : merged) {
                if (part.sum.empty()) continue;
                for (std::size_t p = lo; p < hi; ++p) {
                  accumulated[p] += part.sum[p];
                }
              }
              for (std::size_t p = lo; p < hi; ++p) {
                global_params[p] =
                    static_cast<float>(accumulated[p] / total_weight);
              }
            });
      }
      phase.aggregate_ms = phase_clock.lap_ms();
      // Round byte accounting: priced from the codecs' exact frame sizes
      // (fl/protocol.hpp), identical whether the round ran in-process or
      // over a transport — crashed/late clients still received the model
      // (downlink), and every arriving frame (even a corrupt one) is
      // uplink. The obs net_bytes_* counters separately measure what a
      // transport actually moved.
      record.downlink_bytes =
          n_dispatched * train_job_frame_bytes(global_params.size());
      record.uplink_bytes =
          arrived_updates *
          update_frame_bytes(global_params.size(), config_.compression);
    }

    const double round_duration = clock.advance_round(observed_times);
    record.sim_time_s = clock.now();
    record.round_duration_s = round_duration;

    const bool eval_now =
        (epoch % config_.eval_every == 0) || (epoch + 1 == config_.rounds);
    if (eval_now) {
      obs::Span eval_span("evaluate", "fl");
      model.set_parameters(global_params);
      const bool final_round = epoch + 1 == config_.rounds;
      const auto eval = population_.evaluate(
          model, final_round ? &final_per_client_accuracy_ : nullptr);
      last_accuracy = eval.accuracy;
      last_loss = eval.loss;
      phase.evaluate_ms = phase_clock.lap_ms();
      HACCS_DEBUG << selector.name() << " epoch " << epoch << " t="
                  << clock.now() << "s acc=" << eval.accuracy;
    }
    record.global_accuracy = last_accuracy;
    record.global_loss = last_loss;
    phase.minor_faults = round_faults.lap();
    record.phase = phase;
    metrics.rounds.inc();
    metrics.minor_faults.inc(phase.minor_faults);
    metrics.round_ms.observe(round_clock.lap_ms());
    if (obs::events_enabled() || obs::FlightRecorder::global().enabled()) {
      // One render feeds both sinks; either probe alone still costs one
      // relaxed atomic on the flags-off path.
      const std::string event = round_event_json("sync", record);
      if (obs::events_enabled()) obs::RunEventLog::global().emit(event);
      obs::FlightRecorder::global().record_round_event(event);
    }
    history.add(std::move(record));
    if (config_.on_checkpoint) {
      config_.on_checkpoint(epoch + 1, [&] { return make_run_state(epoch + 1); });
    }
  }
  obs::clear_round_context();
  final_parameters_ = std::move(global_params);
  return history;
}

LocalWorkConfig local_work_config(const EngineConfig& config) {
  LocalWorkConfig work;
  work.local = config.local;
  work.fedprox = config.algorithm == LocalAlgorithm::FedProx;
  work.fedprox_mu = config.fedprox_mu;
  work.compression = config.compression;
  return work;
}

namespace {
/// The validity decision over the n values elem(0), ..., elem(n-1).
template <typename Elem>
bool values_are_valid(std::size_t n, Elem elem, double max_norm) {
  if (max_norm <= 0.0) {
    // Without a bound the decision is "every value is finite", tested
    // branch-free so it vectorises. That is exactly what the bounded path
    // below decides at max_norm = 0: the square of a finite float is exact
    // in double and at most FLT_MAX² ≈ 1.2e77, so a sum of fewer than 1e231
    // such squares stays below DBL_MAX ≈ 1.8e308, and its isfinite test
    // can never fail.
    std::uint32_t non_finite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto bits = std::bit_cast<std::uint32_t>(elem(i));
      non_finite |= static_cast<std::uint32_t>((bits & 0x7f800000u) ==
                                               0x7f800000u);
    }
    return non_finite == 0;
  }
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = elem(i);
    if (!std::isfinite(v)) return false;
    norm_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  return std::isfinite(norm_sq) && norm_sq <= max_norm * max_norm;
}
}  // namespace

bool update_is_valid(std::span<const float> delta, double max_norm) {
  const float* d = delta.data();
  return values_are_valid(
      delta.size(), [d](std::size_t i) { return d[i]; }, max_norm);
}

bool update_is_valid(std::span<const float> updated,
                     std::span<const float> global_params, double max_norm) {
  HACCS_CHECK_MSG(updated.size() == global_params.size(),
                  "update_is_valid: update and global sizes differ");
  const float* __restrict u = updated.data();
  const float* __restrict g = global_params.data();
  return values_are_valid(
      updated.size(), [u, g](std::size_t i) { return u[i] - g[i]; },
      max_norm);
}

}  // namespace haccs::fl
