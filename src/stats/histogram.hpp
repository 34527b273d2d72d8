// Histograms and the Hellinger distance (paper Eq. 3).
//
// Histograms are the paper's privacy-preserving distribution summary: the
// P(y) summary is a label-count histogram, the P(X|y) summary is one
// value-binned feature histogram per label. Hellinger is chosen because it
// tolerates empty bins and is bounded in [0, 1] (Eq. 4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace haccs::stats {

class Histogram {
 public:
  /// Count histogram over `bins` categories (used for label counts).
  explicit Histogram(std::size_t bins);

  /// Value-binned histogram over [lo, hi); values outside the range clamp to
  /// the boundary bins (used for pixel/feature distributions).
  Histogram(std::size_t bins, double lo, double hi);

  std::size_t bins() const { return counts_.size(); }
  double total() const;

  /// Adds `weight` to a category bin directly.
  void add_count(std::size_t bin, double weight = 1.0);

  /// Bins a value (requires the value-binned constructor).
  void observe(double value, double weight = 1.0);

  /// observe(v) for every value, in one call (the P(X|y) summary bins every
  /// feature value of every sample).
  void observe_all(std::span<const float> values);

  std::span<const double> counts() const { return counts_; }
  void set_counts(std::vector<double> counts);

  /// Probability vector: counts / total. An all-zero histogram normalizes to
  /// the zero vector (NOT uniform) so that "no data for this label" is
  /// maximally distinguishable under Hellinger.
  std::vector<double> normalized() const;

  /// Clamps negative bins (which DP noise can produce) to zero.
  void clamp_nonnegative();

 private:
  /// floor((value - lo) / (hi - lo) * bins), clamped into [0, bins - 1].
  std::size_t bin_of(double value) const;

  std::vector<double> counts_;
  bool value_binned_ = false;
  double lo_ = 0.0, hi_ = 0.0;
};

/// One side of Eq. 3, prepared: out[i] = sqrt(max(counts[i], 0) / total)
/// with total the sum of the clamped counts. An all-zero (or all-negative)
/// vector prepares to the zero row. `out` must have counts.size() slots.
void sqrt_probabilities(std::span<const double> counts, std::span<double> out);

/// Eq. 3 over two prepared rows: (1/sqrt(2)) * || a - b ||_2. Every
/// Hellinger distance in the repository reduces to this and
/// sqrt_probabilities, so distances from rows prepared once per client are
/// bit-identical to per-pair calls.
double prepared_hellinger(std::span<const double> a,
                          std::span<const double> b);

/// Hellinger distance between two probability vectors (paper Eq. 3):
/// H(p, q) = (1/sqrt(2)) * || sqrt(p) - sqrt(q) ||_2.
/// Inputs need not be normalized — they are normalized internally (zero
/// vectors stay zero). Result is in [0, 1] for distributions.
double hellinger_distance(std::span<const double> p, std::span<const double> q);

/// Hellinger over two histograms' normalized forms.
double hellinger_distance(const Histogram& a, const Histogram& b);

/// Average Hellinger distance across paired histogram sets (the paper's
/// distance for the P(X|y) summary). The sets must have equal arity; pairs
/// where both histograms are empty contribute 0.
double average_hellinger_distance(std::span<const Histogram> a,
                                  std::span<const Histogram> b);

/// Mass-weighted average Hellinger across paired histogram sets: each label's
/// Hellinger distance is weighted by that label's share of the two clients'
/// total histogram mass, w_c = (total_a(c) + total_b(c)) / (total_a + total_b).
/// The weights are derived from the transmitted count histograms themselves,
/// so no information beyond the P(X|y) summary is used. This keeps rarely-
/// populated noise labels from swamping the comparison of the distributions
/// that actually hold the data — the unweighted average assigns a label with
/// 3 samples the same influence as one with 300. Labels absent on exactly
/// one side contribute their (halved) mass at the maximal distance 1.
double weighted_hellinger_distance(std::span<const Histogram> a,
                                   std::span<const Histogram> b);

/// A histogram set prepared once for many Hellinger comparisons: per
/// histogram its clamped mass max(total, 0) and its sqrt_probabilities row.
/// Building an N x N distance matrix from N prepared sets does the
/// normalization and square roots N times instead of N^2 times.
class HellingerRows {
 public:
  HellingerRows() = default;
  /// A single row from a raw count vector (mass max(sum, 0), as for a
  /// histogram).
  explicit HellingerRows(std::span<const double> counts);
  /// One row per histogram, in order.
  explicit HellingerRows(std::span<const Histogram> set);

  std::size_t size() const { return mass_.size(); }
  double mass(std::size_t r) const { return mass_[r]; }
  std::span<const double> row(std::size_t r) const {
    return std::span<const double>(values_).subspan(
        offsets_[r], offsets_[r + 1] - offsets_[r]);
  }

 private:
  void append(std::span<const double> counts, double mass);

  std::vector<double> mass_;
  std::vector<double> values_;
  std::vector<std::size_t> offsets_{0};
};

/// weighted_hellinger_distance over prepared sets (same result, bit for bit).
double weighted_hellinger_distance(const HellingerRows& a,
                                   const HellingerRows& b);

}  // namespace haccs::stats
