// Differential privacy via the Laplace mechanism (paper §IV-B).
//
// A histogram satisfies (ε, 0)-differential privacy when independent
// Laplace(0, 1/ε) noise is added to every bin (histogram queries have L1
// sensitivity 1: one user's sample moves exactly one bin by one count).
// Smaller ε means more noise — Var[λ] = 2 (1/ε)² (Eq. 5) — trading clustering
// accuracy for privacy (the Fig. 8 experiments).
//
// Negative noisy counts are clamped to zero; clamping is post-processing and
// therefore preserves the DP guarantee.
#pragma once

#include <string>

#include "src/common/rng.hpp"
#include "src/stats/summary.hpp"

namespace haccs::stats {

/// Which perturbation realizes the privacy guarantee.
enum class NoiseMechanism {
  Laplace,   ///< (ε, 0)-DP, the paper's mechanism
  Gaussian,  ///< (ε, δ)-DP via σ = sqrt(2 ln(1.25/δ)) · Δ / ε
};

std::string to_string(NoiseMechanism mechanism);
NoiseMechanism parse_noise_mechanism(const std::string& name);
std::string noise_mechanism_names();  ///< "laplace|gaussian", for --help

/// ε must be > 0; ε = +inf is treated as "no noise".
struct PrivacyConfig {
  double epsilon = 0.1;
  NoiseMechanism mechanism = NoiseMechanism::Laplace;
  /// δ for the Gaussian mechanism (ignored by Laplace).
  double delta = 1e-5;

  static PrivacyConfig none();
  bool enabled() const;
};

/// The privacy of a workload's DP budget (haccs_run --epsilon, the fuzz
/// spec's epsilon=): `mechanism` noise at `epsilon` > 0, none() at 0.
/// Throws std::invalid_argument on a negative or non-finite budget.
PrivacyConfig privacy_for_budget(double epsilon, NoiseMechanism mechanism);

/// The Gaussian mechanism's noise stddev for sensitivity `sensitivity`.
double gaussian_noise_stddev(double epsilon, double delta,
                             double sensitivity = 1.0);

/// Adds Laplace(0, 1/ε) noise to every bin of `histogram` in place.
void privatize_histogram(Histogram& histogram, double epsilon, Rng& rng);

/// Adds mechanism-selected noise to every bin per `config`.
void privatize_histogram(Histogram& histogram, const PrivacyConfig& config,
                         Rng& rng);

/// Returns a privatized copy of a quantile summary: each reported quantile
/// is perturbed with mechanism noise scaled by its clamped-range sensitivity
/// (range / max(mass, 1)), then re-clamped and re-sorted. NOTE: this is the
/// standard clamped-range approximation, not a smooth-sensitivity analysis —
/// documented as an extension (the paper's §V-E future-work direction).
QuantileSummary privatize(const QuantileSummary& summary,
                          const QuantileSummaryConfig& qconfig,
                          const PrivacyConfig& config, Rng& rng);

/// Returns a privatized copy of the P(y) summary.
ResponseSummary privatize(const ResponseSummary& summary,
                          const PrivacyConfig& config, Rng& rng);

/// Returns a privatized copy of the P(X|y) summary (noise in every bin of
/// every per-label histogram).
ConditionalSummary privatize(const ConditionalSummary& summary,
                             const PrivacyConfig& config, Rng& rng);

/// Theoretical noise variance for a given ε (Eq. 5): 2 / ε².
double laplace_noise_variance(double epsilon);

}  // namespace haccs::stats
