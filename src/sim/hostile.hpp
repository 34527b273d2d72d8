// Hostile-world workload shapes (TESTING.md "Hostile-world shapes"): one
// time-structured adversity per run over a fraction `frac`, a trigger epoch
// `at` and a duration or period `span`. haccs_run (--hostile*) and the fuzz
// spec (hostile*=) name, check and build their shape here; the seed offsets
// each piece adds to the workload seed live only in hostile.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/data/partition.hpp"
#include "src/sim/dropout.hpp"
#include "src/sim/faults.hpp"

namespace haccs::sim {

enum class HostileKind {
  None,
  FlashCrowd,          ///< frac of clients all join at epoch `at`
  Diurnal,             ///< availability wave, trough frac, period span + 1
  Outage,              ///< frac of 4 regions dark for `span` epochs from `at`
  Drift,               ///< frac of clients' label mixtures redrawn at `at`
  TargetedStragglers,  ///< fixed cohort of frac clients slowed from `at`
};

std::string to_string(HostileKind kind);
HostileKind parse_hostile_kind(const std::string& name);
std::string hostile_kind_names();  ///< "none|flash-crowd|...", for --help

/// Throws std::invalid_argument unless per-epoch `dropout` lies in [0, 1),
/// `frac` in [0, 1] and `span` >= 1; runs before any data exists.
void check_availability(double dropout, double frac, std::size_t span);

/// The availability every run of the workload shares: `dropout` of the
/// clients unavailable per epoch, intersected with the flash-crowd, diurnal
/// or outage shape. Never null: benign workloads are always available.
std::unique_ptr<DropoutSchedule> make_availability(
    std::size_t num_clients, double dropout, HostileKind kind, double frac,
    std::size_t at, std::size_t span, std::uint64_t seed);

/// TargetedStragglers only: slows a fixed cohort of `frac` from epoch `at`.
void apply_targeted_stragglers(FaultModelConfig& faults, HostileKind kind,
                               double frac, std::size_t at);

/// Drift only (else empty): an EngineConfig::on_epoch_begin hook redrawing
/// `frac` of `fed`'s clients in place from `gen` at epoch `at`. `fed` must
/// outlive the hook, and each run needs a fresh copy of it.
std::function<void(std::size_t)> make_drift_hook(
    HostileKind kind, data::FederatedDataset& fed,
    data::SyntheticImageGenerator gen, double frac, std::size_t at,
    std::uint64_t seed);

}  // namespace haccs::sim
