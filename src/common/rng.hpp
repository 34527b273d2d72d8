// Deterministic, explicitly-seeded random number generation.
//
// Every stochastic component in this repository takes an Rng (or a seed used
// to construct one) explicitly; there is no global RNG state. This makes all
// experiments bit-reproducible: the paper's dropout experiment (§V-C) relies
// on seeding the generators so the same devices drop under every strategy.
//
// The core generator is xoshiro256**, seeded via SplitMix64 per the
// recommendation of its authors. Distribution sampling is implemented here
// (rather than via <random> distributions) so results are identical across
// standard-library implementations.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace haccs {

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** pseudo-random generator with explicit seeding and a suite of
/// deterministic distribution samplers.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// The full generator state, exposed so long-running services can
  /// checkpoint and resume a stream bit-exactly (fl/checkpoint.hpp). The
  /// Box-Muller cache is part of the state: dropping it would shift every
  /// subsequent normal() draw by one.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;

    bool operator==(const State&) const = default;
  };

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// UniformRandomBitGenerator interface (usable with std::shuffle etc.).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Derive an independent child generator; children with distinct streams
  /// never share state with the parent after the call.
  Rng fork();

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection-free
  /// Lemire reduction with rejection fallback).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, cache of second value).
  double normal();

  /// Advances the stream exactly as `n` calls to normal() would, skipping
  /// the Box-Muller transform for every pair consumed whole. Afterwards
  /// state() is bitwise what the `n` normal() calls leave behind.
  void discard_normals(std::size_t n);

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Laplace(mu, b) via inverse-CDF. Used by the differential-privacy
  /// Laplace mechanism (paper Eq. 5): scale b = 1/epsilon.
  double laplace(double mu, double b);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Sample an index from an unnormalized non-negative weight vector.
  /// Throws std::invalid_argument if all weights are zero or any is negative.
  std::size_t categorical(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) (partial Fisher-Yates).
  /// Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  State state() const {
    State out;
    for (std::size_t i = 0; i < 4; ++i) out.s[i] = s_[i];
    out.cached_normal = cached_normal_;
    out.has_cached_normal = has_cached_normal_;
    return out;
  }

  void set_state(const State& state) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = state.s[i];
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace haccs
