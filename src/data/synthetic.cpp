#include "src/data/synthetic.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/common/threadpool.hpp"

namespace haccs::data {

SyntheticImageConfig SyntheticImageConfig::mnist_like() {
  return SyntheticImageConfig{};
}

SyntheticImageConfig SyntheticImageConfig::femnist_like(std::size_t classes) {
  if (classes == 0 || classes > 62) {
    throw std::invalid_argument("femnist_like: classes must be in [1, 62]");
  }
  SyntheticImageConfig c;
  c.classes = classes;
  c.prototype_seed = 43;  // distinct prototype family from MNIST-like
  return c;
}

SyntheticImageConfig SyntheticImageConfig::cifar_like() {
  SyntheticImageConfig c;
  c.channels = 3;
  c.height = 32;
  c.width = 32;
  c.noise_stddev = 0.55;  // CIFAR is the harder dataset in the paper
  c.prototype_seed = 44;
  return c;
}

ClientStyle ClientStyle::sample(double brightness_stddev,
                                double contrast_stddev, Rng& rng) {
  ClientStyle style;
  style.brightness = rng.normal(0.0, std::max(brightness_stddev, 0.0));
  style.contrast =
      std::max(0.2, 1.0 + rng.normal(0.0, std::max(contrast_stddev, 0.0)));
  return style;
}

SyntheticImageGenerator::SyntheticImageGenerator(SyntheticImageConfig config)
    : config_(config) {
  if (config_.classes == 0 || config_.channels == 0 || config_.height == 0 ||
      config_.width == 0) {
    throw std::invalid_argument("SyntheticImageGenerator: zero dimension");
  }
  const std::size_t plane = config_.height * config_.width;
  prototypes_.assign(config_.classes * config_.channels * plane, 0.0f);

  Rng rng(config_.prototype_seed);
  const double pi = std::numbers::pi;
  for (std::size_t cls = 0; cls < config_.classes; ++cls) {
    for (std::size_t ch = 0; ch < config_.channels; ++ch) {
      float* proto =
          prototypes_.data() + (cls * config_.channels + ch) * plane;
      for (std::size_t wave = 0; wave < config_.waves_per_class; ++wave) {
        // Low spatial frequencies (1..3 cycles) keep prototypes smooth so
        // small translations leave classes recognizable.
        const double fy = rng.uniform(1.0, 3.0);
        const double fx = rng.uniform(1.0, 3.0);
        const double phase_y = rng.uniform(0.0, 2.0 * pi);
        const double phase_x = rng.uniform(0.0, 2.0 * pi);
        const double amp = rng.uniform(0.4, 1.0);
        for (std::size_t y = 0; y < config_.height; ++y) {
          const double ny = static_cast<double>(y) / config_.height;
          for (std::size_t x = 0; x < config_.width; ++x) {
            const double nx = static_cast<double>(x) / config_.width;
            proto[y * config_.width + x] += static_cast<float>(
                amp * std::sin(2.0 * pi * fy * ny + phase_y) *
                std::cos(2.0 * pi * fx * nx + phase_x));
          }
        }
      }
    }
  }
}

std::size_t SyntheticImageGenerator::sample_size() const {
  return config_.channels * config_.height * config_.width;
}

std::vector<std::size_t> SyntheticImageGenerator::sample_shape() const {
  return {config_.channels, config_.height, config_.width};
}

std::span<const float> SyntheticImageGenerator::prototype(
    std::int64_t label) const {
  if (label < 0 || static_cast<std::size_t>(label) >= config_.classes) {
    throw std::invalid_argument("prototype: label out of range");
  }
  return {prototypes_.data() + static_cast<std::size_t>(label) * sample_size(),
          sample_size()};
}

void SyntheticImageGenerator::generate(std::int64_t label, Rng& rng,
                                       std::span<float> out,
                                       double rotation_degrees,
                                       const ClientStyle& style) const {
  if (out.size() != sample_size()) {
    throw std::invalid_argument("generate: output span size mismatch");
  }
  auto proto = prototype(label);
  const std::size_t h = config_.height, w = config_.width;
  const std::size_t plane = h * w;
  const auto [dy, dx] = draw_shift(rng);

  // Translated prototype with zero padding, then noise.
  for (std::size_t ch = 0; ch < config_.channels; ++ch) {
    const float* src = proto.data() + ch * plane;
    float* dst = out.data() + ch * plane;
    for (std::size_t y = 0; y < h; ++y) {
      const std::int64_t sy = static_cast<std::int64_t>(y) - dy;
      for (std::size_t x = 0; x < w; ++x) {
        const std::int64_t sx = static_cast<std::int64_t>(x) - dx;
        float v = 0.0f;
        if (sy >= 0 && sy < static_cast<std::int64_t>(h) && sx >= 0 &&
            sx < static_cast<std::int64_t>(w)) {
          v = src[static_cast<std::size_t>(sy) * w +
                  static_cast<std::size_t>(sx)];
        }
        dst[y * w + x] =
            v + static_cast<float>(rng.normal(0.0, config_.noise_stddev));
      }
    }
  }

  if (rotation_degrees != 0.0) {
    std::vector<float> rotated(out.size());
    rotate_image(out, rotated, config_.channels, h, w, rotation_degrees);
    std::copy(rotated.begin(), rotated.end(), out.begin());
  }

  if (style.brightness != 0.0 || style.contrast != 1.0) {
    const auto contrast = static_cast<float>(style.contrast);
    const auto brightness = static_cast<float>(style.brightness);
    for (float& v : out) v = contrast * v + brightness;
  }
}

std::pair<std::int64_t, std::int64_t> SyntheticImageGenerator::draw_shift(
    Rng& rng) const {
  const auto range = static_cast<std::int64_t>(config_.max_shift);
  if (range == 0) return {0, 0};
  const std::int64_t dy = rng.uniform_int(-range, range);
  const std::int64_t dx = rng.uniform_int(-range, range);
  return {dy, dx};
}

void SyntheticImageGenerator::skip(Rng& rng) const {
  draw_shift(rng);
  rng.discard_normals(sample_size());  // one noise draw per pixel
}

void SyntheticImageGenerator::fill(Dataset& dataset, std::int64_t label,
                                   std::size_t count, Rng& rng,
                                   double rotation_degrees,
                                   const ClientStyle& style) const {
  fill(dataset, count, rng, [label](Rng&) { return label; },
       rotation_degrees, style);
}

void SyntheticImageGenerator::fill(
    Dataset& dataset, std::size_t count, Rng& rng,
    const std::function<std::int64_t(Rng&)>& draw_label,
    double rotation_degrees, const ClientStyle& style) const {
  if (dataset.sample_size() != sample_size()) {
    throw std::invalid_argument("fill: dataset sample size mismatch");
  }
  // Pass 1, serial: walk the stream in generate()'s draw order without the
  // Box-Muller math, recording where each sample's draws begin and end.
  std::vector<std::int64_t> labels(count);
  std::vector<Rng::State> begins(count), ends(count);
  for (std::size_t i = 0; i < count; ++i) {
    labels[i] = draw_label(rng);
    prototype(labels[i]);  // range check before the dataset grows
    begins[i] = rng.state();
    skip(rng);
    ends[i] = rng.state();
  }
  const std::size_t first = dataset.add_rows(labels);
  // Pass 2, parallel: replay each sample from its start state straight into
  // its row. Landing anywhere but the recorded end means skip() and
  // generate() disagree on the draw order, which would corrupt every
  // following sample.
  parallel_for(0, count, [&](std::size_t i) {
    Rng sample_rng;
    sample_rng.set_state(begins[i]);
    generate(labels[i], sample_rng, dataset.mutable_features(first + i),
             rotation_degrees, style);
    HACCS_CHECK(sample_rng.state() == ends[i]);
  });
}

void rotate_image(std::span<const float> input, std::span<float> output,
                  std::size_t channels, std::size_t height, std::size_t width,
                  double degrees) {
  if (input.size() != channels * height * width ||
      output.size() != input.size()) {
    throw std::invalid_argument("rotate_image: size mismatch");
  }
  const double theta = degrees * std::numbers::pi / 180.0;
  const double cos_t = std::cos(theta);
  const double sin_t = std::sin(theta);
  const double cy = (static_cast<double>(height) - 1.0) / 2.0;
  const double cx = (static_cast<double>(width) - 1.0) / 2.0;
  const std::size_t plane = height * width;

  for (std::size_t ch = 0; ch < channels; ++ch) {
    const float* src = input.data() + ch * plane;
    float* dst = output.data() + ch * plane;
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        // Inverse mapping: rotate the destination coordinate back into the
        // source frame and sample bilinearly.
        const double ry = static_cast<double>(y) - cy;
        const double rx = static_cast<double>(x) - cx;
        const double sy = cos_t * ry + sin_t * rx + cy;
        const double sx = -sin_t * ry + cos_t * rx + cx;
        const double fy = std::floor(sy);
        const double fx = std::floor(sx);
        const double wy = sy - fy;
        const double wx = sx - fx;
        auto sample = [&](double yy, double xx) -> double {
          if (yy < 0.0 || xx < 0.0 || yy >= static_cast<double>(height) ||
              xx >= static_cast<double>(width)) {
            return 0.0;
          }
          return src[static_cast<std::size_t>(yy) * width +
                     static_cast<std::size_t>(xx)];
        };
        const double v = (1 - wy) * ((1 - wx) * sample(fy, fx) +
                                     wx * sample(fy, fx + 1)) +
                         wy * ((1 - wx) * sample(fy + 1, fx) +
                               wx * sample(fy + 1, fx + 1));
        dst[y * width + x] = static_cast<float>(v);
      }
    }
  }
}

}  // namespace haccs::data
