// Device-availability schedules (paper §III and §V-C).
//
// A schedule answers "which clients are reachable this epoch". Availability
// is a pure function of (seed, epoch) so that, exactly as the paper does,
// "the same set of devices are dropped in each epoch across all the client
// selection strategies" — strategies are compared under identical volatility.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"

namespace haccs::sim {

class DropoutSchedule {
 public:
  virtual ~DropoutSchedule() = default;

  /// Availability mask for the given epoch; size == num_clients.
  virtual std::vector<bool> available(std::size_t epoch) const = 0;

  virtual std::size_t num_clients() const = 0;
};

/// All clients always available.
std::unique_ptr<DropoutSchedule> make_always_available(std::size_t num_clients);

/// Paper §V-C: a random `fraction` of clients is unavailable each epoch and
/// recovers at the end of the epoch (an independent draw per epoch).
std::unique_ptr<DropoutSchedule> make_per_epoch_dropout(std::size_t num_clients,
                                                        double fraction,
                                                        std::uint64_t seed);

/// Paper Fig. 1a: `count` randomly pre-selected clients are permanently
/// dropped from epoch `from_epoch` onward.
std::unique_ptr<DropoutSchedule> make_permanent_random_dropout(
    std::size_t num_clients, std::size_t count, std::size_t from_epoch,
    std::uint64_t seed);

/// Paper Fig. 1b: entire pre-selected groups are permanently dropped.
/// `group_of[i]` is client i's group; `dropped_groups` lists group ids to
/// remove from epoch `from_epoch` onward.
std::unique_ptr<DropoutSchedule> make_group_dropout(
    std::vector<int> group_of, std::vector<int> dropped_groups,
    std::size_t from_epoch);

// --- Hostile-world schedules (ROADMAP "Selector zoo + hostile-world
// scenarios"). Each is a pure function of (seed, epoch) like the rest. ---

/// Flash crowd: a seeded cohort of `round(fraction * n)` clients is absent
/// until `join_epoch`, then all join at once — the selector's view of the
/// population doubles in a single round (app launch / regional rollout).
std::unique_ptr<DropoutSchedule> make_flash_crowd(std::size_t num_clients,
                                                  double fraction,
                                                  std::size_t join_epoch,
                                                  std::uint64_t seed);

/// Diurnal availability wave: each client carries a seeded phase in
/// [0, period); it is unreachable while ((epoch + phase) mod period) <
/// round(down_fraction * period). Clients sharing a phase (a "timezone")
/// come and go together, so availability oscillates instead of being an
/// independent per-epoch coin flip.
std::unique_ptr<DropoutSchedule> make_diurnal_wave(std::size_t num_clients,
                                                   double down_fraction,
                                                   std::size_t period,
                                                   std::uint64_t seed);

/// Correlated regional outage: clients are assigned to `num_regions` seeded
/// regions; during [from_epoch, from_epoch + duration) a seeded selection of
/// `ceil(down_fraction * num_regions)` whole regions goes dark together —
/// the failure mode a per-client dropout rate can never produce.
std::unique_ptr<DropoutSchedule> make_regional_outage(
    std::size_t num_clients, std::size_t num_regions, double down_fraction,
    std::size_t from_epoch, std::size_t duration, std::uint64_t seed);

/// Intersection of two schedules over the same population: a client is
/// available iff both say so. Lets hostile shapes compose with the base
/// per-epoch dropout.
std::unique_ptr<DropoutSchedule> make_intersection(
    std::unique_ptr<DropoutSchedule> a, std::unique_ptr<DropoutSchedule> b);

}  // namespace haccs::sim
