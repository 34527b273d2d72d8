// Synthetic class-conditional image generator.
//
// Substitution for MNIST / FEMNIST / CIFAR-10 (see DESIGN.md §4): each class
// has a fixed smooth prototype image (a sum of seeded low-frequency 2-D
// sinusoids per channel); a sample is the prototype plus Gaussian pixel noise
// and a small random translation. The class structure is therefore learnable
// by the same CNN/MLP architectures the paper trains, while the label and
// feature distributions remain fully controllable — which is what every HACCS
// mechanism actually consumes.
//
// Feature skew (paper §V-D4) is produced by rotating samples about the image
// center; rotations change P(X | y) without touching P(y).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/data/dataset.hpp"

namespace haccs::data {

struct SyntheticImageConfig {
  std::size_t classes = 10;
  std::size_t channels = 1;
  std::size_t height = 28;
  std::size_t width = 28;
  double noise_stddev = 0.35;   ///< per-pixel Gaussian noise
  std::size_t max_shift = 2;    ///< uniform translation in [-max_shift, +max_shift]
  std::size_t waves_per_class = 4;  ///< sinusoid components per prototype
  std::uint64_t prototype_seed = 42;  ///< fixes the class prototypes

  /// MNIST-like: 28x28 grayscale, 10 classes.
  static SyntheticImageConfig mnist_like();
  /// FEMNIST-like: 28x28 grayscale, configurable class count (10, 20, or up
  /// to 62 per the LEAF FEMNIST alphanumeric label space).
  static SyntheticImageConfig femnist_like(std::size_t classes = 10);
  /// CIFAR-like: 32x32 RGB, 10 classes, noisier.
  static SyntheticImageConfig cifar_like();
};

/// Per-client rendering style: an affine pixel transform applied to every
/// sample a client generates, x -> contrast * x + brightness. This stands in
/// for the natural per-device feature heterogeneity of real federated data
/// (each FEMNIST writer's hand, each camera's sensor) — without it the
/// conditional feature distributions P(X|y) would be identical across
/// clients by construction and the P(X|y) summary would have nothing to
/// measure.
struct ClientStyle {
  double brightness = 0.0;
  double contrast = 1.0;

  static ClientStyle neutral() { return {}; }

  /// Draws a style with brightness ~ N(0, brightness_stddev) and contrast
  /// ~ 1 + N(0, contrast_stddev), contrast clamped to stay >= 0.2.
  static ClientStyle sample(double brightness_stddev, double contrast_stddev,
                            Rng& rng);
};

class SyntheticImageGenerator {
 public:
  explicit SyntheticImageGenerator(SyntheticImageConfig config);

  const SyntheticImageConfig& config() const { return config_; }
  std::size_t sample_size() const;
  std::vector<std::size_t> sample_shape() const;

  /// Generates one sample of `label` into `out` (size sample_size()),
  /// optionally rotated by `rotation_degrees` about the image center.
  void generate(std::int64_t label, Rng& rng, std::span<float> out,
                double rotation_degrees = 0.0,
                const ClientStyle& style = ClientStyle::neutral()) const;

  /// Appends `count` samples of `label` to `dataset`.
  void fill(Dataset& dataset, std::int64_t label, std::size_t count, Rng& rng,
            double rotation_degrees = 0.0,
            const ClientStyle& style = ClientStyle::neutral()) const;

  /// Appends `count` samples to `dataset`, each labelled by a `draw_label`
  /// call on `rng` just before its pixels are drawn. The samples render in
  /// parallel, yet the data and `rng`'s final state are bit-identical to a
  /// serial loop of draw_label + generate() (see DESIGN.md §4).
  void fill(Dataset& dataset, std::size_t count, Rng& rng,
            const std::function<std::int64_t(Rng&)>& draw_label,
            double rotation_degrees, const ClientStyle& style) const;

  /// The noiseless prototype for a class (exposed for tests).
  std::span<const float> prototype(std::int64_t label) const;

 private:
  /// The translation (dy, dx) every sample draws before its noise.
  std::pair<std::int64_t, std::int64_t> draw_shift(Rng& rng) const;

  /// Advances `rng` exactly as one generate() call does, without rendering.
  void skip(Rng& rng) const;

  SyntheticImageConfig config_;
  std::vector<float> prototypes_;  // classes * channels * h * w
};

/// Rotates a (channels, h, w) image by `degrees` about its center using
/// bilinear interpolation; out-of-bounds source pixels read as 0.
void rotate_image(std::span<const float> input, std::span<float> output,
                  std::size_t channels, std::size_t height, std::size_t width,
                  double degrees);

}  // namespace haccs::data
