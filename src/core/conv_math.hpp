// Shared conv/BN/pool math (NCHW).
//
// Single home for the value loops of conv2d / batch_norm2d /
// global_avg_pool and for the conv2d pullback: the autograd ops
// (autograd/ops.cpp) and the tape-free serving engine (src/serve/) both
// call these, so served activations are bit-identical to the training
// forward by construction -- there is no second implementation to drift.
//
// Convolution is channel-major im2col (DESIGN.md §9, "Channel-major
// convolution"). The patch matrix is colT [C·KH·KW, N·OH·OW]: row
// (c, ky, kx) holds, for every output pixel, the input value that tap
// reads, so each row is a shifted copy of one input plane and im2col /
// col2im are contiguous row-segment copies and adds. The GEMMs put the
// filters on the M side:
//
//   forward  outT  = W · colT        (kNN)  -> + bias, scattered to NCHW
//   backward dW    = dOutT · colTᵀ   (kNT)
//            dcolT = Wᵀ · dOutT      (kNN over a Wᵀ copy, 4 rows at a
//                                     time)  -> col2im into dX
//
// with W [F, C·KH·KW] and dOutT [F, N·OH·OW]. Per output element these
// are the products of the row-major conv (col·Wᵀ, dOutᵀ·col, dOut·W),
// summed in the same k order, so by the GEMM's canonical-order contract
// every value and gradient is bit-identical to it; col2im adds into each
// input element in the row-major order too, and the bias gradient is the
// same sequential sum. tests/conv_math_test keeps the row-major conv as
// the reference. The output and gradient transposes and the GEMM
// products are transient: they come from the per-thread
// core::transient_workspace() and are released before each call
// returns; only colT, which dW reads, outlives the forward.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace yf::core {

struct Conv2dDims {
  std::int64_t n, c, h, w;  // input
  std::int64_t f, kh, kw;   // filters
  std::int64_t oh, ow;      // output spatial
  std::int64_t stride, pad;

  /// Rows of the patch matrix colT: C·KH·KW.
  std::int64_t patch() const { return c * kh * kw; }
  /// Columns of colT, one per output pixel: N·OH·OW.
  std::int64_t pixels() const { return n * oh * ow; }
};

/// Validated conv geometry: fills oh/ow from input/filter/stride/pad.
/// Throws std::invalid_argument on a non-positive size or stride, a
/// negative pad, or a kernel larger than the padded input.
Conv2dDims conv2d_dims(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                       std::int64_t f, std::int64_t kh, std::int64_t kw, std::int64_t stride,
                       std::int64_t pad);

/// input [N,C,H,W], weight [F, C·KH·KW] in memory (any shape of that
/// size), bias [F] -> colT [C·KH·KW, N·OH·OW] (the patch matrix the
/// pullback reads) and out [N,F,OH,OW]. Shapes are the caller's contract
/// (conv2d_dims and the autograd op validate them).
void conv2d_forward(const tensor::Tensor& input, const tensor::Tensor& weight,
                    const tensor::Tensor& bias, const Conv2dDims& d, tensor::Tensor& colT,
                    tensor::Tensor& out);

/// Gradient accumulators of conv2d_backward; a null target is skipped.
struct Conv2dGrads {
  tensor::Tensor* input = nullptr;   ///< [N,C,H,W]
  tensor::Tensor* weight = nullptr;  ///< [F,C,KH,KW]
  tensor::Tensor* bias = nullptr;    ///< [F]
};

/// Pullback of conv2d_forward: `dout` [N,F,OH,OW] is the output gradient,
/// `colT` and `weight` are the forward's. Every non-null target in
/// `grads` is accumulated into (+=).
void conv2d_backward(const tensor::Tensor& dout, const tensor::Tensor& colT,
                     const tensor::Tensor& weight, const Conv2dDims& d, const Conv2dGrads& grads);

/// Training-mode BN statistics: per-channel mean and 1/std over [N,C,H,W].
void batchnorm2d_stats_into(tensor::Tensor& mean, tensor::Tensor& inv_std,
                            const tensor::Tensor& x, std::int64_t n, std::int64_t c,
                            std::int64_t h, std::int64_t w, double eps);

/// xhat = (x - mean)/std (cached for backward), out = gamma*xhat + beta.
void batchnorm2d_normalize_into(tensor::Tensor& out, tensor::Tensor& xhat,
                                const tensor::Tensor& x, const tensor::Tensor& gamma,
                                const tensor::Tensor& beta, const tensor::Tensor& mean,
                                const tensor::Tensor& inv_std, std::int64_t n, std::int64_t c,
                                std::int64_t h, std::int64_t w);

/// [N,C,H,W] -> [N,C] spatial mean.
void global_avg_pool_into(tensor::Tensor& out, const tensor::Tensor& x, std::int64_t n,
                          std::int64_t c, std::int64_t h, std::int64_t w);

}  // namespace yf::core
