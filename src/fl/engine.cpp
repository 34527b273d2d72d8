#include "src/fl/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "src/common/error.hpp"
#include "src/common/threadpool.hpp"
#include "src/common/logging.hpp"
#include "src/fl/protocol.hpp"
#include "src/obs/events.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"
#include "src/obs/trace.hpp"
#include "src/tensor/vecops.hpp"

namespace haccs::fl {

namespace {
/// Engine telemetry instruments, registered once and shared by both engines
/// (one process-global registry; snapshots aggregate across runs).
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
  obs::Histogram& train_ms =
      obs::Registry::global().histogram("local_train_wall_ms");
  obs::Histogram& round_ms =
      obs::Registry::global().histogram("round_wall_ms");

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};
}  // namespace

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
}

FederatedTrainer::FederatedTrainer(const data::FederatedDataset& dataset,
                                   std::function<nn::Sequential()> model_factory,
                                   EngineConfig config)
    : dataset_(dataset),
      model_factory_(std::move(model_factory)),
      config_(config),
      latency_model_(config.latency),
      fault_model_(config.faults) {
  check_engine_config(config_, dataset_.clients.size());
  // Device profiles: one stream derived from the seed, independent of the
  // training stream so that adding rounds never changes hardware assignment.
  Rng profile_rng(config_.seed ^ 0xdeadbeefcafef00dULL);
  profiles_.reserve(dataset_.clients.size());
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    profiles_.push_back(sim::DeviceProfile::sample(profile_rng));
  }
  // Uplink payload under the configured compression (the parameter count
  // comes from one throwaway factory build).
  const std::size_t param_count = model_factory_().parameter_count();
  upload_bytes_ = compressed_wire_bytes(param_count, config_.compression);
}

double FederatedTrainer::client_latency(std::size_t i) const {
  if (i >= profiles_.size()) {
    throw std::out_of_range("client_latency: bad client id");
  }
  if (config_.compression.kind != CompressionKind::None) {
    return latency_model_.round_latency_asymmetric(
        profiles_[i], dataset_.clients[i].train.size(),
        config_.latency.model_bytes, upload_bytes_);
  }
  return latency_model_.round_latency(profiles_[i],
                                      dataset_.clients[i].train.size());
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
  std::vector<ClientRuntimeInfo> view;
  view.reserve(dataset_.clients.size());
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    ClientRuntimeInfo info;
    info.id = i;
    info.latency_s = client_latency(i);
    info.num_samples = dataset_.clients[i].train.size();
    info.last_loss = config_.initial_loss;
    info.available = true;
    view.push_back(info);
  }
  return view;
}

FederatedTrainer::GlobalEval FederatedTrainer::evaluate_global(
    nn::Sequential& model, std::vector<double>* per_client) const {
  GlobalEval eval;
  if (per_client) per_client->assign(dataset_.clients.size(), 0.0);
  // "The overall accuracy is the average test accuracy on all devices" —
  // every device counts equally, including those currently unavailable.
  // Per-device evaluations are independent and run through the const
  // inference path in parallel; the reduction below is serial in client
  // order, so the totals do not depend on worker timing.
  std::vector<EvalResult> results(dataset_.clients.size());
  parallel_for(0, dataset_.clients.size(), [&](std::size_t i) {
    results[i] = evaluate(model, dataset_.clients[i].test);
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    eval.accuracy += results[i].accuracy;
    eval.loss += results[i].loss;
    if (per_client) (*per_client)[i] = results[i].accuracy;
  }
  const auto n = static_cast<double>(dataset_.clients.size());
  eval.accuracy /= n;
  eval.loss /= n;
  return eval;
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

    // Post-dispatch fault trace for this round: effective latency (straggler
    // excursions applied) and the fate of each dispatched client.
    enum class Fate { Pending, Crashed, Late };
    const std::size_t n_dispatched = dispatched.size();
    std::vector<sim::FaultEvent> faults(n_dispatched);
    std::vector<double> eff_latency(n_dispatched);
    std::vector<Fate> fate(n_dispatched, Fate::Pending);
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
    for (std::size_t i = 0; i < n_dispatched; ++i) {
      if (faults[i].kind == sim::FaultKind::Crash) {
        fate[i] = Fate::Crashed;
      } else if (deadline > 0.0 && eff_latency[i] > deadline) {
        fate[i] = Fate::Late;
      }
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
      // Crashed and late clients never deliver an update, so they get no job
      // (their fork is still consumed, keeping the streams aligned across
      // fault configurations); the rest go to the dispatcher — thread pool,
      // loopback workers, or TCP peers, all computing the same update.
      std::vector<TrainJobSpec> jobs;
      jobs.reserve(n_dispatched);
      for (std::size_t i = 0; i < n_dispatched; ++i) {
        const std::uint64_t job_seed = train_rng.next_u64();
        if (fate[i] != Fate::Pending) continue;
        const std::size_t id = dispatched[i];
        TrainJobSpec job;
        job.slot = i;
        job.client_id = id;
        job.epoch = epoch;
        job.rng_seed = job_seed;
        if (config_.algorithm == LocalAlgorithm::FedProx) {
          job.work_fraction = fedprox_work_fraction(
              view[id].latency_s / std::max(min_latency, 1e-9),
              config_.fedprox_min_work);
        }
        jobs.push_back(job);
      }
      std::vector<TrainOutcome> outcomes(n_dispatched);
      obs::Span train_span("local_train_round", "fl");
      dispatcher->execute(jobs, global_params, outcomes);
      phase.train_ms = phase_clock.lap_ms();

      // FedAvg: weighted average of the accepted updates, accumulated in
      // dispatch order so the result is independent of worker timing.
      // Crashed, late, and validation-rejected clients are wasted work.
      obs::Span aggregate_span("aggregate", "fl");
      std::vector<double> accumulated(global_params.size(), 0.0);
      double total_weight = 0.0;
      std::size_t arrived_updates = 0;  // frames received (incl. corrupt)
      for (std::size_t i = 0; i < n_dispatched; ++i) {
        const std::size_t id = dispatched[i];
        if (fate[i] == Fate::Crashed) {
          // Failure surfaces when the connection drops, mid-round.
          double observed = faults[i].crash_frac * eff_latency[i];
          if (deadline > 0.0) observed = std::min(observed, deadline);
          observed_times.push_back(observed);
          record.crashed.push_back(id);
          obs::instant("client_crash", "fault");
          metrics.crashed.inc();
          breakers[id].record_failure(epoch);
          selector.report_failure(id, epoch, FailureKind::Crash);
          continue;
        }
        if (fate[i] == Fate::Late) {
          // The server waits until the deadline, then gives up on it.
          observed_times.push_back(deadline);
          record.late.push_back(id);
          obs::instant("client_late", "fault");
          metrics.late.inc();
          selector.report_failure(id, epoch, FailureKind::Timeout);
          continue;
        }
        TrainOutcome& outcome = outcomes[i];
        if (!outcome.delivered) {
          // Transport-level failure (never on the in-process path): map it
          // onto the same accounting the simulated faults use, so selectors
          // cannot tell real wire damage from injected faults.
          switch (outcome.failure) {
            case FailureKind::Timeout:
              observed_times.push_back(deadline > 0.0 ? deadline
                                                      : eff_latency[i]);
              record.late.push_back(id);
              obs::instant("client_late", "fault");
              metrics.late.inc();
              selector.report_failure(id, epoch, FailureKind::Timeout);
              break;
            case FailureKind::CorruptUpdate:
              // A frame arrived (it counts as uplink) but its payload died.
              ++arrived_updates;
              observed_times.push_back(eff_latency[i]);
              record.rejected.push_back(id);
              obs::instant("update_rejected", "fault");
              metrics.rejected.inc();
              breakers[id].record_failure(epoch);
              selector.report_failure(id, epoch, FailureKind::CorruptUpdate);
              break;
            case FailureKind::Crash: {
              double observed = eff_latency[i];
              if (deadline > 0.0) observed = std::min(observed, deadline);
              observed_times.push_back(observed);
              record.crashed.push_back(id);
              obs::instant("client_crash", "fault");
              metrics.crashed.inc();
              breakers[id].record_failure(epoch);
              selector.report_failure(id, epoch, FailureKind::Crash);
              break;
            }
          }
          continue;
        }
        ++arrived_updates;
        if (outcome.pre_aggregated) {
          // Already folded into the dispatcher's partial sums (§5j) with
          // the engine's exact diff/validate/accumulate arithmetic — only
          // the per-slot bookkeeping remains here. The weighted sums merge
          // after this loop; total_weight still prices from the engine's
          // own dataset so the partials' weights can be cross-checked.
          observed_times.push_back(eff_latency[i]);
          const auto weight =
              static_cast<double>(dataset_.clients[id].train.size());
          total_weight += weight;
          view[id].last_loss = outcome.result.average_loss;
          breakers[id].record_success();
          selector.report_result(id, outcome.result.average_loss, epoch);
          record.selected.push_back(id);
          continue;
        }
        std::vector<float> updated = std::move(outcome.updated);
        if (faults[i].kind == sim::FaultKind::Corruption) {
          // Wire-level corruption: mangle the delta the server receives
          // (client-side state, e.g. compression residuals, stays clean).
          // Applied post-receipt — the same pure function of the fault
          // event and delta the old in-lambda path computed.
          std::vector<float> corrupted(updated.size());
          vec::diff(corrupted, updated, global_params);
          fault_model_.corrupt(faults[i], corrupted);
          for (std::size_t p = 0; p < updated.size(); ++p) {
            updated[p] = global_params[p] + corrupted[p];
          }
        }
        // Parameter delta: input to validation and gradient-direction
        // schedulers alike.
        std::vector<float> delta(updated.size());
        vec::diff(delta, updated, global_params);
        observed_times.push_back(eff_latency[i]);
        if (!update_is_valid(delta, config_.max_update_norm)) {
          HACCS_DEBUG << selector.name() << " epoch " << epoch
                      << " rejected invalid update from client " << id;
          record.rejected.push_back(id);
          obs::instant("update_rejected", "fault");
          metrics.rejected.inc();
          breakers[id].record_failure(epoch);
          selector.report_failure(id, epoch, FailureKind::CorruptUpdate);
          continue;
        }
        const auto weight =
            static_cast<double>(dataset_.clients[id].train.size());
        vec::accumulate_scaled(accumulated, updated, weight);
        total_weight += weight;
        view[id].last_loss = outcome.result.average_loss;
        breakers[id].record_success();
        selector.report_result(id, outcome.result.average_loss, epoch);
        selector.report_update(id, delta, epoch);
        record.selected.push_back(id);
      }
      if (const std::vector<PartialAggregate>* parts = dispatcher->partials()) {
        // Grouped / hierarchical aggregation: merge the per-group partial
        // sums into the accumulator in group order. Per element this is the
        // identical f64 add sequence no matter which tier performed the
        // group folds, so tree and flat grouped runs converge bitwise.
        double partial_weight = 0.0;
        for (const PartialAggregate& part : *parts) {
          partial_weight += part.weight;
          if (part.sum.empty()) continue;
          HACCS_CHECK_MSG(part.sum.size() == accumulated.size(),
                          "partial aggregate has wrong parameter count");
          for (std::size_t p = 0; p < accumulated.size(); ++p) {
            accumulated[p] += part.sum[p];
          }
        }
        // Integer sample-count weights sum exactly in f64, so any mismatch
        // is a real bookkeeping bug, not rounding.
        HACCS_CHECK_MSG(partial_weight == total_weight,
                        "partial aggregate weights disagree with the engine");
      }
      if (total_weight > 0.0) {
        for (std::size_t p = 0; p < global_params.size(); ++p) {
          global_params[p] = static_cast<float>(accumulated[p] / total_weight);
        }
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
      const auto eval = evaluate_global(
          model, final_round ? &final_per_client_accuracy_ : nullptr);
      last_accuracy = eval.accuracy;
      last_loss = eval.loss;
      metrics.evaluations.inc();
      phase.evaluate_ms = phase_clock.lap_ms();
      HACCS_DEBUG << selector.name() << " epoch " << epoch << " t="
                  << clock.now() << "s acc=" << eval.accuracy;
    }
    record.global_accuracy = last_accuracy;
    record.global_loss = last_loss;
    record.phase = phase;
    metrics.rounds.inc();
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

bool update_is_valid(std::span<const float> delta, double max_norm) {
  double norm_sq = 0.0;
  for (float v : delta) {
    if (!std::isfinite(v)) return false;
    norm_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  if (!std::isfinite(norm_sq)) return false;
  return max_norm <= 0.0 || norm_sq <= max_norm * max_norm;
}

}  // namespace haccs::fl
