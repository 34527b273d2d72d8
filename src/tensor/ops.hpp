// Tensor kernels: GEMM family, 2-D convolution, and max-pooling.
//
// These are the compute primitives behind the neural-network layers. The
// GEMM family (NN / NT / TN) runs through one cache-blocked, packing,
// register-tiled kernel (MC/KC/NC tiling; see DESIGN.md §"Compute kernels")
// parallelized over row panels with parallel_for, with an AVX2+FMA
// micro-kernel selected at runtime on CPUs that support it. Convolutions use
// the im2col/col2im + GEMM formulation in both directions once the patch
// matrix is large enough to amortize packing, and direct loops below that.
// The straightforward seed implementations are retained as `*_reference` /
// `*_direct` kernels: they define the semantics the optimized paths are
// property-tested against, and `set_kernel_backend(KernelBackend::kReference)`
// routes every dispatching entry point through them at runtime.
#pragma once

#include <cstddef>

#include "src/tensor/tensor.hpp"

namespace haccs::ops {

/// Which implementations the dispatching kernels (gemm / conv2d_*) use.
/// kOptimized (default) picks the blocked/packed paths; kReference forces the
/// retained seed kernels everywhere — for equivalence tests and debugging.
enum class KernelBackend { kOptimized, kReference };

/// Process-wide backend switch (atomic; intended for tests, not hot paths).
/// Initial value honors HACCS_KERNEL_BACKEND=reference; the environment
/// variable HACCS_PORTABLE_KERNELS additionally forces the non-AVX2 blocked
/// path within kOptimized.
void set_kernel_backend(KernelBackend backend);
KernelBackend kernel_backend();

/// C = A(m,k) * B(k,n). Shapes are validated; C is resized by the caller
/// passing a correctly-shaped tensor. `accumulate == false` overwrites C;
/// on every kernel path the result is bit for bit that of zero-filling C
/// and accumulating, so a caller may drop such a fill.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);

/// C = A(m,k) * B(n,k)^T -> (m,n).
void gemm_bt(const Tensor& a, const Tensor& b, Tensor& c,
             bool accumulate = false);

/// C = A(k,m)^T * B(k,n) -> (m,n).
void gemm_at(const Tensor& a, const Tensor& b, Tensor& c,
             bool accumulate = false);

/// The fewest output rows m for which a dispatching GEMM with n output
/// columns and depth k runs the blocked kernel; smaller products run plain
/// loops, which round differently. Each output row of either kernel depends
/// on its own input row alone, so a row gets the same bits in every batch
/// on the same side of this cutoff.
std::size_t gemm_blocked_min_rows(std::size_t n, std::size_t k);

/// Reference GEMM kernels: the plain loop nests the blocked implementations
/// are tested against. Numerically these accumulate in a different order
/// than the blocked kernels, so agreement is tolerance-bounded, not bitwise.
void gemm_reference(const Tensor& a, const Tensor& b, Tensor& c,
                    bool accumulate = false);
void gemm_bt_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       bool accumulate = false);
void gemm_at_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       bool accumulate = false);

struct Conv2dShape {
  std::size_t batch;
  std::size_t in_channels;
  std::size_t in_h;
  std::size_t in_w;
  std::size_t out_channels;
  std::size_t kernel;   // square kernels only
  std::size_t stride;
  std::size_t padding;

  std::size_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
};

/// Forward convolution. input: (N, Cin, H, W); weight: (Cout, Cin, K, K);
/// bias: (Cout); output: (N, Cout, Hout, Wout) — allocated by caller.
/// Dispatches to the im2col+GEMM path when the patch matrix is large enough
/// to amortize the packing, and to direct loops otherwise.
void conv2d_forward(const Conv2dShape& s, const Tensor& input,
                    const Tensor& weight, const Tensor& bias, Tensor& output);

/// Direct-loop forward convolution (always available; reference semantics).
void conv2d_forward_direct(const Conv2dShape& s, const Tensor& input,
                           const Tensor& weight, const Tensor& bias,
                           Tensor& output);

/// im2col + GEMM forward convolution. Produces bit-different but numerically
/// equivalent results to the direct path (same multiply/add tree per output
/// up to float reassociation by GEMM accumulation order).
void conv2d_forward_im2col(const Conv2dShape& s, const Tensor& input,
                           const Tensor& weight, const Tensor& bias,
                           Tensor& output);

/// Unrolls one sample's padded patches into a (Cin*K*K, Hout*Wout) matrix.
/// `sample` points at the (Cin, H, W) block; `columns` must be presized.
void im2col(const Conv2dShape& s, const float* sample, float* columns);

/// Scatter-adds a (Cin*K*K, Hout*Wout) column matrix back onto one sample's
/// (Cin, H, W) gradient block (the adjoint of im2col). `sample_grad` must be
/// zeroed by the caller before the first accumulation.
void col2im(const Conv2dShape& s, const float* columns, float* sample_grad);

/// Gradient w.r.t. input. grad_output: (N, Cout, Hout, Wout) ->
/// grad_input: (N, Cin, H, W), overwritten. Dispatches between the
/// col2im+GEMM path and the direct loops like the forward pass.
void conv2d_backward_input(const Conv2dShape& s, const Tensor& grad_output,
                           const Tensor& weight, Tensor& grad_input);

/// Direct-loop input gradient (reference semantics).
void conv2d_backward_input_direct(const Conv2dShape& s,
                                  const Tensor& grad_output,
                                  const Tensor& weight, Tensor& grad_input);

/// col2im + GEMM input gradient: dcols = W^T * dY per sample, then col2im.
void conv2d_backward_input_im2col(const Conv2dShape& s,
                                  const Tensor& grad_output,
                                  const Tensor& weight, Tensor& grad_input);

/// Gradients w.r.t. weight and bias, *accumulated* into grad_weight /
/// grad_bias (caller zeroes them at the start of a batch). Dispatches
/// between the im2col+GEMM path and the direct loops.
void conv2d_backward_params(const Conv2dShape& s, const Tensor& input,
                            const Tensor& grad_output, Tensor& grad_weight,
                            Tensor& grad_bias);

/// Direct-loop parameter gradients (reference semantics).
void conv2d_backward_params_direct(const Conv2dShape& s, const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_weight, Tensor& grad_bias);

/// im2col + GEMM parameter gradients: dW += dY * cols^T per sample.
void conv2d_backward_params_im2col(const Conv2dShape& s, const Tensor& input,
                                   const Tensor& grad_output,
                                   Tensor& grad_weight, Tensor& grad_bias);

struct Pool2dShape {
  std::size_t batch;
  std::size_t channels;
  std::size_t in_h;
  std::size_t in_w;
  std::size_t window;  // square window, stride == window (non-overlapping)

  std::size_t out_h() const { return in_h / window; }
  std::size_t out_w() const { return in_w / window; }
};

/// Max pooling; `argmax` records the flat input index of each maximum for
/// the backward pass. output/argmax: (N, C, Hout, Wout)-sized.
void maxpool_forward(const Pool2dShape& s, const Tensor& input, Tensor& output,
                     std::vector<std::size_t>& argmax);

/// Max pooling without recording argmax — the inference path.
void maxpool_forward_infer(const Pool2dShape& s, const Tensor& input,
                           Tensor& output);

/// Scatter grad_output back through the recorded argmax indices;
/// grad_input is overwritten.
void maxpool_backward(const Pool2dShape& s, const Tensor& grad_output,
                      const std::vector<std::size_t>& argmax,
                      Tensor& grad_input);

}  // namespace haccs::ops
