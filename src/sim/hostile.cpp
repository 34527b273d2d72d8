#include "src/sim/hostile.hpp"

#include <stdexcept>
#include <utility>

#include "src/common/name_table.hpp"

namespace haccs::sim {

namespace {

const Named<HostileKind> kHostileNames[] = {
    {HostileKind::None, "none"},
    {HostileKind::FlashCrowd, "flash-crowd"},
    {HostileKind::Diurnal, "diurnal"},
    {HostileKind::Outage, "outage"},
    {HostileKind::Drift, "drift"},
    {HostileKind::TargetedStragglers, "targeted-stragglers"}};

// One stream per piece, offset from the workload seed. Runs, replays and
// pinned tests depend on these values.
constexpr std::uint64_t kDropoutSeed = 101, kShapeSeed = 211, kDriftSeed = 307;

}  // namespace

std::string to_string(HostileKind kind) {
  return name_of(kHostileNames, kind);
}

HostileKind parse_hostile_kind(const std::string& name) {
  return parse_name(kHostileNames, name, "hostile shape");
}

std::string hostile_kind_names() { return joined_names(kHostileNames); }

void check_availability(double dropout, double frac, std::size_t span) {
  if (!(dropout >= 0.0 && dropout < 1.0)) {
    throw std::invalid_argument("dropout must lie in [0, 1)");
  }
  if (!(frac >= 0.0 && frac <= 1.0)) {
    throw std::invalid_argument("hostile frac must lie in [0, 1]");
  }
  if (span == 0) throw std::invalid_argument("hostile span must be >= 1");
}

std::unique_ptr<DropoutSchedule> make_availability(
    std::size_t num_clients, double dropout, HostileKind kind, double frac,
    std::size_t at, std::size_t span, std::uint64_t seed) {
  auto schedule =
      dropout > 0.0
          ? make_per_epoch_dropout(num_clients, dropout, seed + kDropoutSeed)
          : make_always_available(num_clients);
  std::unique_ptr<DropoutSchedule> shape;
  if (kind == HostileKind::FlashCrowd) {
    shape = make_flash_crowd(num_clients, frac, at, seed + kShapeSeed);
  } else if (kind == HostileKind::Diurnal) {
    // Period = span + 1 keeps the trough strictly shorter than the period
    // for any frac < 1, so the wave never blacks out a whole cycle.
    shape = make_diurnal_wave(num_clients, frac, span + 1, seed + kShapeSeed);
  } else if (kind == HostileKind::Outage) {
    shape = make_regional_outage(num_clients, /*num_regions=*/4, frac, at,
                                 span, seed + kShapeSeed);
  }
  if (shape) schedule = make_intersection(std::move(schedule), std::move(shape));
  return schedule;
}

void apply_targeted_stragglers(FaultModelConfig& faults, HostileKind kind,
                               double frac, std::size_t at) {
  if (kind != HostileKind::TargetedStragglers) return;
  faults.targeted_fraction = frac;
  faults.targeted_from = at;
}

std::function<void(std::size_t)> make_drift_hook(
    HostileKind kind, data::FederatedDataset& fed,
    data::SyntheticImageGenerator gen, double frac, std::size_t at,
    std::uint64_t seed) {
  if (kind != HostileKind::Drift) return {};
  return [&fed, gen = std::move(gen), frac, at, seed](std::size_t epoch) {
    if (epoch != at) return;
    Rng rng(seed + kDriftSeed);
    data::apply_label_drift(fed, gen, frac, rng);
  };
}

}  // namespace haccs::sim
