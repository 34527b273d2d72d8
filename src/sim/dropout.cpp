#include "src/sim/dropout.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace haccs::sim {

namespace {

class AlwaysAvailable final : public DropoutSchedule {
 public:
  explicit AlwaysAvailable(std::size_t n) : n_(n) {}
  std::vector<bool> available(std::size_t) const override {
    return std::vector<bool>(n_, true);
  }
  std::size_t num_clients() const override { return n_; }

 private:
  std::size_t n_;
};

class PerEpochDropout final : public DropoutSchedule {
 public:
  PerEpochDropout(std::size_t n, double fraction, std::uint64_t seed)
      : n_(n), fraction_(fraction), seed_(seed) {
    if (fraction < 0.0 || fraction > 1.0) {
      throw std::invalid_argument("per-epoch dropout: fraction out of [0, 1]");
    }
  }

  std::vector<bool> available(std::size_t epoch) const override {
    // A fresh generator per (seed, epoch) keeps the draw identical no matter
    // how many times or in what order epochs are queried.
    Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (epoch + 1)));
    const auto drop_count =
        static_cast<std::size_t>(fraction_ * static_cast<double>(n_));
    std::vector<bool> mask(n_, true);
    for (std::size_t i : rng.sample_without_replacement(n_, drop_count)) {
      mask[i] = false;
    }
    return mask;
  }

  std::size_t num_clients() const override { return n_; }

 private:
  std::size_t n_;
  double fraction_;
  std::uint64_t seed_;
};

class PermanentRandomDropout final : public DropoutSchedule {
 public:
  PermanentRandomDropout(std::size_t n, std::size_t count,
                         std::size_t from_epoch, std::uint64_t seed)
      : n_(n), from_epoch_(from_epoch), dropped_(n, false) {
    if (count > n) {
      throw std::invalid_argument("permanent dropout: count > num_clients");
    }
    Rng rng(seed);
    for (std::size_t i : rng.sample_without_replacement(n, count)) {
      dropped_[i] = true;
    }
  }

  std::vector<bool> available(std::size_t epoch) const override {
    std::vector<bool> mask(n_, true);
    if (epoch < from_epoch_) return mask;
    for (std::size_t i = 0; i < n_; ++i) mask[i] = !dropped_[i];
    return mask;
  }

  std::size_t num_clients() const override { return n_; }

 private:
  std::size_t n_;
  std::size_t from_epoch_;
  std::vector<bool> dropped_;
};

class GroupDropout final : public DropoutSchedule {
 public:
  GroupDropout(std::vector<int> group_of, std::vector<int> dropped_groups,
               std::size_t from_epoch)
      : group_of_(std::move(group_of)),
        dropped_groups_(std::move(dropped_groups)),
        from_epoch_(from_epoch) {}

  std::vector<bool> available(std::size_t epoch) const override {
    std::vector<bool> mask(group_of_.size(), true);
    if (epoch < from_epoch_) return mask;
    for (std::size_t i = 0; i < group_of_.size(); ++i) {
      if (std::find(dropped_groups_.begin(), dropped_groups_.end(),
                    group_of_[i]) != dropped_groups_.end()) {
        mask[i] = false;
      }
    }
    return mask;
  }

  std::size_t num_clients() const override { return group_of_.size(); }

 private:
  std::vector<int> group_of_;
  std::vector<int> dropped_groups_;
  std::size_t from_epoch_;
};

class FlashCrowd final : public DropoutSchedule {
 public:
  FlashCrowd(std::size_t n, double fraction, std::size_t join_epoch,
             std::uint64_t seed)
      : n_(n), join_epoch_(join_epoch), joiner_(n, false) {
    if (fraction < 0.0 || fraction > 1.0) {
      throw std::invalid_argument("flash crowd: fraction out of [0, 1]");
    }
    const auto count =
        static_cast<std::size_t>(fraction * static_cast<double>(n));
    Rng rng(seed ^ 0xf1a5c0b0dULL);
    for (std::size_t i : rng.sample_without_replacement(n, count)) {
      joiner_[i] = true;
    }
  }

  std::vector<bool> available(std::size_t epoch) const override {
    std::vector<bool> mask(n_, true);
    if (epoch >= join_epoch_) return mask;
    for (std::size_t i = 0; i < n_; ++i) mask[i] = !joiner_[i];
    return mask;
  }

  std::size_t num_clients() const override { return n_; }

 private:
  std::size_t n_;
  std::size_t join_epoch_;
  std::vector<bool> joiner_;
};

class DiurnalWave final : public DropoutSchedule {
 public:
  DiurnalWave(std::size_t n, double down_fraction, std::size_t period,
              std::uint64_t seed)
      : n_(n), period_(period), phase_(n, 0) {
    if (down_fraction < 0.0 || down_fraction > 1.0) {
      throw std::invalid_argument("diurnal wave: down_fraction out of [0, 1]");
    }
    if (period == 0) {
      throw std::invalid_argument("diurnal wave: period must be > 0");
    }
    down_span_ = static_cast<std::size_t>(
        down_fraction * static_cast<double>(period) + 0.5);
    Rng rng(seed ^ 0xd1c2a1ULL);
    for (std::size_t i = 0; i < n; ++i) {
      phase_[i] = static_cast<std::size_t>(rng.uniform_index(period));
    }
  }

  std::vector<bool> available(std::size_t epoch) const override {
    std::vector<bool> mask(n_, true);
    for (std::size_t i = 0; i < n_; ++i) {
      mask[i] = ((epoch + phase_[i]) % period_) >= down_span_;
    }
    return mask;
  }

  std::size_t num_clients() const override { return n_; }

 private:
  std::size_t n_;
  std::size_t period_;
  std::size_t down_span_ = 0;
  std::vector<std::size_t> phase_;
};

class RegionalOutage final : public DropoutSchedule {
 public:
  RegionalOutage(std::size_t n, std::size_t num_regions, double down_fraction,
                 std::size_t from_epoch, std::size_t duration,
                 std::uint64_t seed)
      : n_(n), from_epoch_(from_epoch), until_epoch_(from_epoch + duration),
        dark_(n, false) {
    if (down_fraction < 0.0 || down_fraction > 1.0) {
      throw std::invalid_argument("regional outage: fraction out of [0, 1]");
    }
    if (num_regions == 0) {
      throw std::invalid_argument("regional outage: num_regions must be > 0");
    }
    Rng rng(seed ^ 0x0e07a6eULL);
    std::vector<std::size_t> region(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      region[i] = static_cast<std::size_t>(rng.uniform_index(num_regions));
    }
    const auto dark_regions = static_cast<std::size_t>(std::ceil(
        down_fraction * static_cast<double>(num_regions)));
    std::vector<bool> region_dark(num_regions, false);
    for (std::size_t r :
         rng.sample_without_replacement(num_regions, dark_regions)) {
      region_dark[r] = true;
    }
    for (std::size_t i = 0; i < n; ++i) dark_[i] = region_dark[region[i]];
  }

  std::vector<bool> available(std::size_t epoch) const override {
    std::vector<bool> mask(n_, true);
    if (epoch < from_epoch_ || epoch >= until_epoch_) return mask;
    for (std::size_t i = 0; i < n_; ++i) mask[i] = !dark_[i];
    return mask;
  }

  std::size_t num_clients() const override { return n_; }

 private:
  std::size_t n_;
  std::size_t from_epoch_;
  std::size_t until_epoch_;
  std::vector<bool> dark_;
};

class Intersection final : public DropoutSchedule {
 public:
  Intersection(std::unique_ptr<DropoutSchedule> a,
               std::unique_ptr<DropoutSchedule> b)
      : a_(std::move(a)), b_(std::move(b)) {
    if (a_->num_clients() != b_->num_clients()) {
      throw std::invalid_argument(
          "schedule intersection: population size mismatch");
    }
  }

  std::vector<bool> available(std::size_t epoch) const override {
    auto mask = a_->available(epoch);
    const auto other = b_->available(epoch);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask[i] = mask[i] && other[i];
    }
    return mask;
  }

  std::size_t num_clients() const override { return a_->num_clients(); }

 private:
  std::unique_ptr<DropoutSchedule> a_;
  std::unique_ptr<DropoutSchedule> b_;
};

}  // namespace

std::unique_ptr<DropoutSchedule> make_always_available(std::size_t num_clients) {
  return std::make_unique<AlwaysAvailable>(num_clients);
}

std::unique_ptr<DropoutSchedule> make_per_epoch_dropout(std::size_t num_clients,
                                                        double fraction,
                                                        std::uint64_t seed) {
  return std::make_unique<PerEpochDropout>(num_clients, fraction, seed);
}

std::unique_ptr<DropoutSchedule> make_permanent_random_dropout(
    std::size_t num_clients, std::size_t count, std::size_t from_epoch,
    std::uint64_t seed) {
  return std::make_unique<PermanentRandomDropout>(num_clients, count,
                                                  from_epoch, seed);
}

std::unique_ptr<DropoutSchedule> make_group_dropout(
    std::vector<int> group_of, std::vector<int> dropped_groups,
    std::size_t from_epoch) {
  return std::make_unique<GroupDropout>(std::move(group_of),
                                        std::move(dropped_groups), from_epoch);
}

std::unique_ptr<DropoutSchedule> make_flash_crowd(std::size_t num_clients,
                                                  double fraction,
                                                  std::size_t join_epoch,
                                                  std::uint64_t seed) {
  return std::make_unique<FlashCrowd>(num_clients, fraction, join_epoch, seed);
}

std::unique_ptr<DropoutSchedule> make_diurnal_wave(std::size_t num_clients,
                                                   double down_fraction,
                                                   std::size_t period,
                                                   std::uint64_t seed) {
  return std::make_unique<DiurnalWave>(num_clients, down_fraction, period,
                                       seed);
}

std::unique_ptr<DropoutSchedule> make_regional_outage(
    std::size_t num_clients, std::size_t num_regions, double down_fraction,
    std::size_t from_epoch, std::size_t duration, std::uint64_t seed) {
  return std::make_unique<RegionalOutage>(num_clients, num_regions,
                                          down_fraction, from_epoch, duration,
                                          seed);
}

std::unique_ptr<DropoutSchedule> make_intersection(
    std::unique_ptr<DropoutSchedule> a, std::unique_ptr<DropoutSchedule> b) {
  return std::make_unique<Intersection>(std::move(a), std::move(b));
}

}  // namespace haccs::sim
