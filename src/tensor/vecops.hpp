// Branch-free elementwise kernels over contiguous spans.
//
// These are the small vector loops behind Tensor arithmetic, the SGD
// optimizer, and FedAvg accumulation. Each helper takes raw contiguous
// ranges, has no branch in the inner loop, and is written so -O3
// auto-vectorizes it on whatever ISA the translation unit targets. Keeping
// them in one header means every caller gets the same (inlined) codegen
// instead of re-rolling slightly different loops.
#pragma once

#include <cstddef>
#include <span>

namespace haccs::vec {

/// dst[i] += a * src[i].
inline void axpy(std::span<float> dst, std::span<const float> src, float a) {
  float* __restrict d = dst.data();
  const float* __restrict s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] += a * s[i];
}

/// dst[i] += src[i].
inline void add(std::span<float> dst, std::span<const float> src) {
  float* __restrict d = dst.data();
  const float* __restrict s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] += s[i];
}

/// dst[i] -= src[i].
inline void sub(std::span<float> dst, std::span<const float> src) {
  float* __restrict d = dst.data();
  const float* __restrict s = src.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] -= s[i];
}

/// dst[i] *= a.
inline void scale(std::span<float> dst, float a) {
  float* __restrict d = dst.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] *= a;
}

/// dst[i] = a[i] - b[i] (writes a fresh delta, e.g. update - global).
inline void diff(std::span<float> dst, std::span<const float> a,
                 std::span<const float> b) {
  float* __restrict d = dst.data();
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] = pa[i] - pb[i];
}

/// acc[i] += w * src[i], widening to double — the FedAvg accumulation loop.
inline void accumulate_scaled(std::span<double> acc,
                              std::span<const float> src, double w) {
  double* __restrict d = acc.data();
  const float* __restrict s = src.data();
  const std::size_t n = acc.size();
  for (std::size_t i = 0; i < n; ++i) d[i] += w * static_cast<double>(s[i]);
}

/// acc[i] = 0.0 + w * src[i]: the first accumulate_scaled into a zeroed
/// `acc`, without the zero fill. The explicit 0.0 + keeps the result's bits
/// (a -0.0 product becomes +0.0, as it does when added to a zeroed sum);
/// without -ffast-math the compiler may not drop it.
inline void assign_scaled(std::span<double> acc, std::span<const float> src,
                          double w) {
  double* __restrict d = acc.data();
  const float* __restrict s = src.data();
  const std::size_t n = acc.size();
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = 0.0 + w * static_cast<double>(s[i]);
  }
}

/// Plain SGD step: p[i] -= lr * (g[i] + wd * p[i]).
inline void sgd_step(std::span<float> p, std::span<const float> g, float lr,
                     float wd) {
  float* __restrict pp = p.data();
  const float* __restrict pg = g.data();
  const std::size_t n = p.size();
  for (std::size_t i = 0; i < n; ++i) pp[i] -= lr * (pg[i] + wd * pp[i]);
}

/// Momentum SGD step: v = mu*v + g + wd*p; p -= lr*v.
inline void sgd_momentum_step(std::span<float> p, std::span<const float> g,
                              std::span<float> v, float lr, float mu,
                              float wd) {
  float* __restrict pp = p.data();
  const float* __restrict pg = g.data();
  float* __restrict pv = v.data();
  const std::size_t n = p.size();
  for (std::size_t i = 0; i < n; ++i) {
    pv[i] = mu * pv[i] + pg[i] + wd * pp[i];
    pp[i] -= lr * pv[i];
  }
}

/// x[i] = max(x[i], 0) in place — ReLU forward, branch-free.
inline void relu(std::span<float> x) {
  float* d = x.data();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
}

/// dst[i] = in[i] > 0 ? dst[i] : 0 — ReLU backward mask, branch-free select.
inline void relu_mask(std::span<float> dst, std::span<const float> in) {
  float* __restrict d = dst.data();
  const float* __restrict s = in.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] = s[i] > 0.0f ? d[i] : 0.0f;
}

}  // namespace haccs::vec
