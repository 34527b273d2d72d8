#include "src/tensor/ops.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/threadpool.hpp"
#include "src/obs/metrics.hpp"
#include "src/tensor/gemm_blocked.hpp"

namespace haccs::ops {

namespace {

// One registry lookup per process; inc() itself is a relaxed-load no-op
// while metrics are disabled, so the hot path stays untouched.
obs::Counter& gemm_calls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("gemm_backend_calls");
  return c;
}

void check_matrix(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string("gemm: ") + name +
                                " must be rank-2, got " + t.shape_string());
  }
}

// Minimum per-thread row count before parallel dispatch pays off.
constexpr std::size_t kParallelRowThreshold = 64;

template <typename Kernel>
void dispatch_rows(std::size_t m, Kernel&& kernel) {
  if (m >= kParallelRowThreshold && ThreadPool::global().size() > 0) {
    parallel_for(0, m, kernel);
  } else {
    for (std::size_t i = 0; i < m; ++i) kernel(i);
  }
}

KernelBackend initial_backend() {
  const char* env = std::getenv("HACCS_KERNEL_BACKEND");
  if (env != nullptr && std::string_view(env) == "reference") {
    return KernelBackend::kReference;
  }
  return KernelBackend::kOptimized;
}

std::atomic<KernelBackend> g_backend{initial_backend()};

/// Resolved once per process: AVX2+FMA backend when the CPU supports it and
/// HACCS_PORTABLE_KERNELS is not set, else the portable blocked backend.
detail::BlockedGemmFn blocked_gemm_fn() {
  static const detail::BlockedGemmFn fn = [] {
#if defined(HACCS_HAVE_AVX2_KERNELS)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
        std::getenv("HACCS_PORTABLE_KERNELS") == nullptr) {
      return detail::avx2::gemm_blocked;
    }
#endif
    return detail::portable::gemm_blocked;
  }();
  return fn;
}

// Below this m*n*k volume the packing overhead of the blocked kernel is not
// worth paying; small products run through plain loops instead.
constexpr std::size_t kSmallGemmVolume = 4096;

/// C(m,n) (+)= A(m,k) * B(k,n), all row-major contiguous.
void gemm_raw(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c, bool accumulate) {
  if (m * n * k <= kSmallGemmVolume) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      if (!accumulate) std::fill(crow, crow + n, 0.0f);
      const float* arow = a + i * k;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        const float* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  blocked_gemm_fn()(m, n, k, a, /*a_is=*/k, /*a_ks=*/1, b, /*b_ks=*/n,
                    /*b_js=*/1, c, accumulate);
}

/// C(m,n) (+)= A(m,k) * B(n,k)^T, all row-major contiguous.
void gemm_bt_raw(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 const float* b, float* c, bool accumulate) {
  if (m * n * k <= kSmallGemmVolume) {
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = accumulate ? crow[j] : 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] = acc;
      }
    }
    return;
  }
  blocked_gemm_fn()(m, n, k, a, /*a_is=*/k, /*a_ks=*/1, b, /*b_ks=*/1,
                    /*b_js=*/k, c, accumulate);
}

/// C(m,n) (+)= A(k,m)^T * B(k,n), all row-major contiguous.
void gemm_at_raw(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 const float* b, float* c, bool accumulate) {
  if (m * n * k <= kSmallGemmVolume) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* arow = a + kk * m;
      const float* brow = b + kk * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float aki = arow[i];
        float* crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
    return;
  }
  blocked_gemm_fn()(m, n, k, a, /*a_is=*/1, /*a_ks=*/m, b, /*b_ks=*/n,
                    /*b_js=*/1, c, accumulate);
}

}  // namespace

std::size_t gemm_blocked_min_rows(std::size_t n, std::size_t k) {
  HACCS_CHECK_MSG(n > 0 && k > 0, "gemm_blocked_min_rows: zero extent");
  return kSmallGemmVolume / (n * k) + 1;
}

void set_kernel_backend(KernelBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

KernelBackend kernel_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

void gemm_reference(const Tensor& a, const Tensor& b, Tensor& c,
                    bool accumulate) {
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::size_t m = a.extent(0), k = a.extent(1), n = b.extent(1);
  if (b.extent(0) != k || c.extent(0) != m || c.extent(1) != n) {
    throw std::invalid_argument("gemm: shape mismatch " + a.shape_string() +
                                " x " + b.shape_string() + " -> " +
                                c.shape_string());
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  dispatch_rows(m, [&](std::size_t i) {
    float* crow = pc + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    const float* arow = pa + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = pb + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  });
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  gemm_calls_counter().inc();
  if (kernel_backend() == KernelBackend::kReference) {
    gemm_reference(a, b, c, accumulate);
    return;
  }
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::size_t m = a.extent(0), k = a.extent(1), n = b.extent(1);
  if (b.extent(0) != k || c.extent(0) != m || c.extent(1) != n) {
    throw std::invalid_argument("gemm: shape mismatch " + a.shape_string() +
                                " x " + b.shape_string() + " -> " +
                                c.shape_string());
  }
  gemm_raw(m, n, k, a.raw(), b.raw(), c.raw(), accumulate);
}

void gemm_bt_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       bool accumulate) {
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::size_t m = a.extent(0), k = a.extent(1), n = b.extent(0);
  if (b.extent(1) != k || c.extent(0) != m || c.extent(1) != n) {
    throw std::invalid_argument("gemm_bt: shape mismatch");
  }
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  dispatch_rows(m, [&](std::size_t i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = accumulate ? crow[j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  });
}

void gemm_bt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  gemm_calls_counter().inc();
  if (kernel_backend() == KernelBackend::kReference) {
    gemm_bt_reference(a, b, c, accumulate);
    return;
  }
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::size_t m = a.extent(0), k = a.extent(1), n = b.extent(0);
  if (b.extent(1) != k || c.extent(0) != m || c.extent(1) != n) {
    throw std::invalid_argument("gemm_bt: shape mismatch");
  }
  gemm_bt_raw(m, n, k, a.raw(), b.raw(), c.raw(), accumulate);
}

void gemm_at_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       bool accumulate) {
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::size_t k = a.extent(0), m = a.extent(1), n = b.extent(1);
  if (b.extent(0) != k || c.extent(0) != m || c.extent(1) != n) {
    throw std::invalid_argument("gemm_at: shape mismatch");
  }
  if (!accumulate) c.fill(0.0f);
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* pc = c.raw();
  // C[i][j] += sum_kk A[kk][i] * B[kk][j]; iterate kk outermost for
  // sequential access to both A and B rows.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void gemm_at(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  gemm_calls_counter().inc();
  if (kernel_backend() == KernelBackend::kReference) {
    gemm_at_reference(a, b, c, accumulate);
    return;
  }
  check_matrix(a, "A");
  check_matrix(b, "B");
  check_matrix(c, "C");
  const std::size_t k = a.extent(0), m = a.extent(1), n = b.extent(1);
  if (b.extent(0) != k || c.extent(0) != m || c.extent(1) != n) {
    throw std::invalid_argument("gemm_at: shape mismatch");
  }
  gemm_at_raw(m, n, k, a.raw(), b.raw(), c.raw(), accumulate);
}

namespace {

void check_conv_shapes(const Conv2dShape& s, const Tensor& input,
                       const Tensor& weight, const Tensor& bias) {
  HACCS_CHECK_MSG(s.kernel > 0 && s.stride > 0, "conv2d: bad kernel/stride");
  HACCS_CHECK_MSG(s.in_h + 2 * s.padding >= s.kernel &&
                      s.in_w + 2 * s.padding >= s.kernel,
                  "conv2d: kernel larger than padded input");
  if (input.rank() != 4 || input.extent(0) != s.batch ||
      input.extent(1) != s.in_channels || input.extent(2) != s.in_h ||
      input.extent(3) != s.in_w) {
    throw std::invalid_argument("conv2d: input shape mismatch " +
                                input.shape_string());
  }
  if (weight.rank() != 4 || weight.extent(0) != s.out_channels ||
      weight.extent(1) != s.in_channels || weight.extent(2) != s.kernel ||
      weight.extent(3) != s.kernel) {
    throw std::invalid_argument("conv2d: weight shape mismatch " +
                                weight.shape_string());
  }
  if (bias.rank() != 1 || bias.extent(0) != s.out_channels) {
    throw std::invalid_argument("conv2d: bias shape mismatch");
  }
}

// The GEMM path wins once the patch matrix has real volume; tiny kernels on
// tiny images are faster through the direct loops (no packing).
bool conv_gemm_pays_off(const Conv2dShape& s) {
  return s.in_channels * s.kernel * s.kernel * s.out_h() * s.out_w() >= 4096;
}

}  // namespace

void im2col(const Conv2dShape& s, const float* sample, float* columns) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t out_plane = oh * ow;
  const std::size_t in_plane = s.in_h * s.in_w;
  // Row (ci, ky, kx), column (y, x): the input pixel feeding that tap.
  std::size_t row = 0;
  for (std::size_t ci = 0; ci < s.in_channels; ++ci) {
    const float* in_c = sample + ci * in_plane;
    for (std::size_t ky = 0; ky < s.kernel; ++ky) {
      for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
        float* out_row = columns + row * out_plane;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * s.stride + ky) -
              static_cast<std::ptrdiff_t>(s.padding);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.in_h)) {
            std::fill(out_row + y * ow, out_row + (y + 1) * ow, 0.0f);
            continue;
          }
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * s.stride + kx) -
                static_cast<std::ptrdiff_t>(s.padding);
            out_row[y * ow + x] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.in_w))
                    ? 0.0f
                    : in_c[iy * static_cast<std::ptrdiff_t>(s.in_w) + ix];
          }
        }
      }
    }
  }
}

void col2im(const Conv2dShape& s, const float* columns, float* sample_grad) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t out_plane = oh * ow;
  const std::size_t in_plane = s.in_h * s.in_w;
  std::size_t row = 0;
  for (std::size_t ci = 0; ci < s.in_channels; ++ci) {
    float* grad_c = sample_grad + ci * in_plane;
    for (std::size_t ky = 0; ky < s.kernel; ++ky) {
      for (std::size_t kx = 0; kx < s.kernel; ++kx, ++row) {
        const float* col_row = columns + row * out_plane;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * s.stride + ky) -
              static_cast<std::ptrdiff_t>(s.padding);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * s.stride + kx) -
                static_cast<std::ptrdiff_t>(s.padding);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.in_w)) continue;
            grad_c[iy * static_cast<std::ptrdiff_t>(s.in_w) + ix] +=
                col_row[y * ow + x];
          }
        }
      }
    }
  }
}

void conv2d_forward_im2col(const Conv2dShape& s, const Tensor& input,
                           const Tensor& weight, const Tensor& bias,
                           Tensor& output) {
  check_conv_shapes(s, input, weight, bias);
  const std::size_t out_plane = s.out_h() * s.out_w();
  const std::size_t patch = s.in_channels * s.kernel * s.kernel;
  if (output.size() != s.batch * s.out_channels * out_plane) {
    throw std::invalid_argument("conv2d: output shape mismatch");
  }
  // Weight viewed flat as (Cout, patch), columns as (patch, out_plane):
  // output_n = W * columns + bias. Column scratch is per-thread and reused
  // across samples and calls (no per-sample allocation).
  const float* w = weight.raw();
  const float* b = bias.raw();
  const float* in = input.raw();
  float* out = output.raw();
  dispatch_rows(s.batch, [&](std::size_t n) {
    thread_local std::vector<float> cols;
    cols.resize(patch * out_plane);
    im2col(s, in + n * s.in_channels * s.in_h * s.in_w, cols.data());
    float* dst = out + n * s.out_channels * out_plane;
    gemm_raw(s.out_channels, out_plane, patch, w, cols.data(), dst,
             /*accumulate=*/false);
    for (std::size_t co = 0; co < s.out_channels; ++co) {
      float* drow = dst + co * out_plane;
      const float bias_c = b[co];
      for (std::size_t i = 0; i < out_plane; ++i) drow[i] += bias_c;
    }
  });
}

void conv2d_forward(const Conv2dShape& s, const Tensor& input,
                    const Tensor& weight, const Tensor& bias, Tensor& output) {
  if (kernel_backend() == KernelBackend::kOptimized && conv_gemm_pays_off(s)) {
    conv2d_forward_im2col(s, input, weight, bias, output);
  } else {
    conv2d_forward_direct(s, input, weight, bias, output);
  }
}

void conv2d_forward_direct(const Conv2dShape& s, const Tensor& input,
                           const Tensor& weight, const Tensor& bias,
                           Tensor& output) {
  check_conv_shapes(s, input, weight, bias);
  const std::size_t oh = s.out_h(), ow = s.out_w();
  if (output.rank() != 4 || output.extent(0) != s.batch ||
      output.extent(1) != s.out_channels || output.extent(2) != oh ||
      output.extent(3) != ow) {
    throw std::invalid_argument("conv2d: output shape mismatch");
  }
  const float* in = input.raw();
  const float* w = weight.raw();
  const float* b = bias.raw();
  float* out = output.raw();
  const std::size_t in_plane = s.in_h * s.in_w;
  const std::size_t out_plane = oh * ow;

  dispatch_rows(s.batch, [&](std::size_t n) {
    const float* in_n = in + n * s.in_channels * in_plane;
    float* out_n = out + n * s.out_channels * out_plane;
    for (std::size_t co = 0; co < s.out_channels; ++co) {
      float* out_c = out_n + co * out_plane;
      const float bias_c = b[co];
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float acc = bias_c;
          for (std::size_t ci = 0; ci < s.in_channels; ++ci) {
            const float* in_c = in_n + ci * in_plane;
            const float* w_c = w + (co * s.in_channels + ci) * s.kernel * s.kernel;
            for (std::size_t ky = 0; ky < s.kernel; ++ky) {
              // signed arithmetic for the padded coordinate
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y * s.stride + ky) -
                  static_cast<std::ptrdiff_t>(s.padding);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.in_h)) continue;
              for (std::size_t kx = 0; kx < s.kernel; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x * s.stride + kx) -
                    static_cast<std::ptrdiff_t>(s.padding);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.in_w)) continue;
                acc += in_c[iy * static_cast<std::ptrdiff_t>(s.in_w) + ix] *
                       w_c[ky * s.kernel + kx];
              }
            }
          }
          out_c[y * ow + x] = acc;
        }
      }
    }
  });
}

void conv2d_backward_input(const Conv2dShape& s, const Tensor& grad_output,
                           const Tensor& weight, Tensor& grad_input) {
  if (kernel_backend() == KernelBackend::kOptimized && conv_gemm_pays_off(s)) {
    conv2d_backward_input_im2col(s, grad_output, weight, grad_input);
  } else {
    conv2d_backward_input_direct(s, grad_output, weight, grad_input);
  }
}

void conv2d_backward_input_im2col(const Conv2dShape& s,
                                  const Tensor& grad_output,
                                  const Tensor& weight, Tensor& grad_input) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  HACCS_CHECK_MSG(grad_output.rank() == 4 && grad_output.extent(2) == oh &&
                      grad_output.extent(3) == ow,
                  "conv2d_backward_input: grad_output shape");
  const std::size_t out_plane = oh * ow;
  const std::size_t in_plane = s.in_h * s.in_w;
  const std::size_t patch = s.in_channels * s.kernel * s.kernel;
  grad_input.fill(0.0f);
  const float* go = grad_output.raw();
  const float* w = weight.raw();  // flat (Cout, patch)
  float* gi = grad_input.raw();
  // Per sample: dcols(patch, out_plane) = W^T * dY_n, then scatter back.
  dispatch_rows(s.batch, [&](std::size_t n) {
    thread_local std::vector<float> dcols;
    dcols.resize(patch * out_plane);
    gemm_at_raw(patch, out_plane, s.out_channels, w,
                go + n * s.out_channels * out_plane, dcols.data(),
                /*accumulate=*/false);
    col2im(s, dcols.data(), gi + n * s.in_channels * in_plane);
  });
}

void conv2d_backward_input_direct(const Conv2dShape& s,
                                  const Tensor& grad_output,
                                  const Tensor& weight, Tensor& grad_input) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  HACCS_CHECK_MSG(grad_output.rank() == 4 && grad_output.extent(2) == oh &&
                      grad_output.extent(3) == ow,
                  "conv2d_backward_input: grad_output shape");
  grad_input.fill(0.0f);
  const float* go = grad_output.raw();
  const float* w = weight.raw();
  float* gi = grad_input.raw();
  const std::size_t in_plane = s.in_h * s.in_w;
  const std::size_t out_plane = oh * ow;

  dispatch_rows(s.batch, [&](std::size_t n) {
    const float* go_n = go + n * s.out_channels * out_plane;
    float* gi_n = gi + n * s.in_channels * in_plane;
    for (std::size_t co = 0; co < s.out_channels; ++co) {
      const float* go_c = go_n + co * out_plane;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const float g = go_c[y * ow + x];
          for (std::size_t ci = 0; ci < s.in_channels; ++ci) {
            float* gi_c = gi_n + ci * in_plane;
            const float* w_c =
                w + (co * s.in_channels + ci) * s.kernel * s.kernel;
            for (std::size_t ky = 0; ky < s.kernel; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y * s.stride + ky) -
                  static_cast<std::ptrdiff_t>(s.padding);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.in_h)) continue;
              for (std::size_t kx = 0; kx < s.kernel; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x * s.stride + kx) -
                    static_cast<std::ptrdiff_t>(s.padding);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.in_w)) continue;
                gi_c[iy * static_cast<std::ptrdiff_t>(s.in_w) + ix] +=
                    g * w_c[ky * s.kernel + kx];
              }
            }
          }
        }
      }
    }
  });
}

void conv2d_backward_params(const Conv2dShape& s, const Tensor& input,
                            const Tensor& grad_output, Tensor& grad_weight,
                            Tensor& grad_bias) {
  if (kernel_backend() == KernelBackend::kOptimized && conv_gemm_pays_off(s)) {
    conv2d_backward_params_im2col(s, input, grad_output, grad_weight,
                                  grad_bias);
  } else {
    conv2d_backward_params_direct(s, input, grad_output, grad_weight,
                                  grad_bias);
  }
}

void conv2d_backward_params_im2col(const Conv2dShape& s, const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_weight, Tensor& grad_bias) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t out_plane = oh * ow;
  const std::size_t in_plane = s.in_h * s.in_w;
  const std::size_t patch = s.in_channels * s.kernel * s.kernel;
  const float* in = input.raw();
  const float* go = grad_output.raw();
  float* gw = grad_weight.raw();  // flat (Cout, patch)
  float* gb = grad_bias.raw();
  // Serial over batch: the gradient accumulators are shared across samples
  // and the per-element accumulation order must not depend on thread count.
  // The per-sample GEMM itself may still parallelize over row panels.
  thread_local std::vector<float> cols;
  cols.resize(patch * out_plane);
  for (std::size_t n = 0; n < s.batch; ++n) {
    im2col(s, in + n * s.in_channels * in_plane, cols.data());
    const float* go_n = go + n * s.out_channels * out_plane;
    // dW(Cout, patch) += dY_n(Cout, out_plane) * cols^T(out_plane, patch).
    gemm_bt_raw(s.out_channels, patch, out_plane, go_n, cols.data(), gw,
                /*accumulate=*/true);
    for (std::size_t co = 0; co < s.out_channels; ++co) {
      const float* go_c = go_n + co * out_plane;
      float acc = 0.0f;
      for (std::size_t i = 0; i < out_plane; ++i) acc += go_c[i];
      gb[co] += acc;
    }
  }
}

void conv2d_backward_params_direct(const Conv2dShape& s, const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_weight, Tensor& grad_bias) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const float* in = input.raw();
  const float* go = grad_output.raw();
  float* gw = grad_weight.raw();
  float* gb = grad_bias.raw();
  const std::size_t in_plane = s.in_h * s.in_w;
  const std::size_t out_plane = oh * ow;

  // Serial over batch: grad accumulators are shared across samples.
  for (std::size_t n = 0; n < s.batch; ++n) {
    const float* in_n = in + n * s.in_channels * in_plane;
    const float* go_n = go + n * s.out_channels * out_plane;
    for (std::size_t co = 0; co < s.out_channels; ++co) {
      const float* go_c = go_n + co * out_plane;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const float g = go_c[y * ow + x];
          gb[co] += g;
          for (std::size_t ci = 0; ci < s.in_channels; ++ci) {
            const float* in_c = in_n + ci * in_plane;
            float* gw_c = gw + (co * s.in_channels + ci) * s.kernel * s.kernel;
            for (std::size_t ky = 0; ky < s.kernel; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y * s.stride + ky) -
                  static_cast<std::ptrdiff_t>(s.padding);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.in_h)) continue;
              for (std::size_t kx = 0; kx < s.kernel; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x * s.stride + kx) -
                    static_cast<std::ptrdiff_t>(s.padding);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(s.in_w)) continue;
                gw_c[ky * s.kernel + kx] +=
                    g * in_c[iy * static_cast<std::ptrdiff_t>(s.in_w) + ix];
              }
            }
          }
        }
      }
    }
  }
}

namespace {

template <bool RecordArgmax>
void maxpool_forward_impl(const Pool2dShape& s, const Tensor& input,
                          Tensor& output, std::vector<std::size_t>* argmax) {
  HACCS_CHECK_MSG(s.window > 0 && s.in_h >= s.window && s.in_w >= s.window,
                  "maxpool: bad window");
  const std::size_t oh = s.out_h(), ow = s.out_w();
  if (output.size() != s.batch * s.channels * oh * ow) {
    throw std::invalid_argument("maxpool: output shape mismatch");
  }
  if constexpr (RecordArgmax) argmax->resize(output.size());
  const float* in = input.raw();
  float* out = output.raw();
  const std::size_t in_plane = s.in_h * s.in_w;
  const std::size_t out_plane = oh * ow;

  for (std::size_t n = 0; n < s.batch; ++n) {
    for (std::size_t c = 0; c < s.channels; ++c) {
      const std::size_t in_base = (n * s.channels + c) * in_plane;
      const std::size_t out_base = (n * s.channels + c) * out_plane;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t wy = 0; wy < s.window; ++wy) {
            for (std::size_t wx = 0; wx < s.window; ++wx) {
              const std::size_t idx = in_base +
                                      (y * s.window + wy) * s.in_w +
                                      (x * s.window + wx);
              if (in[idx] > best) {
                best = in[idx];
                best_idx = idx;
              }
            }
          }
          out[out_base + y * ow + x] = best;
          if constexpr (RecordArgmax) {
            (*argmax)[out_base + y * ow + x] = best_idx;
          }
        }
      }
    }
  }
}

}  // namespace

void maxpool_forward(const Pool2dShape& s, const Tensor& input, Tensor& output,
                     std::vector<std::size_t>& argmax) {
  maxpool_forward_impl<true>(s, input, output, &argmax);
}

void maxpool_forward_infer(const Pool2dShape& s, const Tensor& input,
                           Tensor& output) {
  maxpool_forward_impl<false>(s, input, output, nullptr);
}

void maxpool_backward(const Pool2dShape& s, const Tensor& grad_output,
                      const std::vector<std::size_t>& argmax,
                      Tensor& grad_input) {
  if (grad_output.size() != argmax.size()) {
    throw std::invalid_argument("maxpool_backward: argmax size mismatch");
  }
  (void)s;
  grad_input.fill(0.0f);
  const float* go = grad_output.raw();
  float* gi = grad_input.raw();
  for (std::size_t i = 0; i < argmax.size(); ++i) gi[argmax[i]] += go[i];
}

}  // namespace haccs::ops
