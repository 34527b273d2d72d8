#include "src/common/rng.hpp"

#include <cmath>
#include <numbers>

namespace haccs {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::fork() { return Rng(next_u64()); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  // Rejection sampling over the largest multiple of n to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const auto range =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi-lo < 2^63 in practice
  return lo + static_cast<std::int64_t>(uniform_index(range));
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

void Rng::discard_normals(std::size_t n) {
  if (n > 0 && has_cached_normal_) {
    normal();
    --n;
  }
  // Whole pairs draw only their raw words, with normal()'s u1 > 0 rejection.
  // The last one or two draws go through normal() itself, so even the
  // inactive cache slot ends up holding what normal() would leave there.
  for (; n > 2; n -= 2) {
    while (uniform() <= 0.0) {
    }
    uniform();
  }
  for (; n > 0; --n) normal();
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::laplace(double mu, double b) {
  if (b <= 0.0) throw std::invalid_argument("laplace: scale must be > 0");
  // Inverse CDF: u in (-1/2, 1/2), x = mu - b * sign(u) * ln(1 - 2|u|).
  const double u = uniform() - 0.5;
  const double sign = (u < 0.0) ? -1.0 : 1.0;
  return mu - b * sign * std::log(1.0 - 2.0 * std::abs(u));
}

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument("categorical: weights must be finite and >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("categorical: total weight must be > 0");
  }
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  // Floating-point rounding: return the last index with positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument("sample_without_replacement: k > n");
  }
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::vector<std::size_t> Rng::sample_with_replacement(
    std::span<const double> weights, std::size_t k) {
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) out.push_back(categorical(weights));
  return out;
}

}  // namespace haccs
