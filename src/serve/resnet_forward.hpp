// Tape-free MiniResNet forward for serving (DESIGN.md §11).
//
// Mirrors MiniResNet::forward() kernel-for-kernel over weights read from a
// pinned SnapshotStore slot: conv (core::conv2d_forward), BN and pool
// come from core/conv_math.hpp -- the same functions the autograd ops
// call -- and the head GEMM is the same `_into` variant, so served logits
// are bit-identical to the training forward on identical inputs.
//
// Batch statistics make BN output depend on batch composition, so the
// batch size (and image geometry) is fixed at construction; serving a
// BN ResNet coalesces only full fixed-size batches. All buffers come from
// an owned Workspace (the conv's transient products from the serving
// thread's core::transient_workspace); after warm() a forward allocates
// nothing. One instance is driven by one thread at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arena.hpp"
#include "core/conv_math.hpp"
#include "core/workspace.hpp"
#include "nn/resnet.hpp"
#include "serve/snapshot.hpp"

namespace yf::serve {

class ResNetForward {
 public:
  /// `arena` must be the flat arena the model's parameters live in;
  /// `store` must outlive this object. `batch`/`height`/`width` fix the
  /// served input geometry (BN uses batch statistics).
  ResNetForward(const nn::MiniResNet& model, const core::ParamArena& arena,
                const SnapshotStore& store, std::int64_t batch, std::int64_t height,
                std::int64_t width);

  /// images [batch, C, H, W] -> logits [batch, num_classes], weights from
  /// snapshot slot `slot`. The returned tensor is owned by this object and
  /// valid until the next forward().
  const tensor::Tensor& forward(const tensor::Tensor& images, int slot);

  /// Run one forward on zero images (weights from `slot`) so later
  /// forwards allocate nothing. Call from the serving thread.
  void warm(int slot);

  std::int64_t batch() const { return batch_; }
  std::int64_t num_classes() const { return num_classes_; }

 private:
  /// One convolution: fixed dims + per-slot weight/bias views + buffers.
  struct ConvStep {
    core::Conv2dDims d;
    std::vector<tensor::Tensor> wmat;  ///< per slot, [F, C*KH*KW]
    std::vector<tensor::Tensor> bias;  ///< per slot, [F]
    tensor::Tensor colT, out;          ///< patch matrix, output
  };
  /// One training-mode batch norm over the conv output geometry.
  struct BnStep {
    std::int64_t n, c, h, w;
    double eps;
    std::vector<tensor::Tensor> gamma, beta;  ///< per slot, [C]
    tensor::Tensor mean, inv_std, xhat, out;
  };
  struct BlockStep {
    ConvStep conv1, conv2;
    std::unique_ptr<ConvStep> proj;
    std::unique_ptr<BnStep> bn1, bn2;
    double residual_scale;
    tensor::Tensor relu1, scaled, sum, out;
  };

  ConvStep make_conv(const nn::Conv2d& conv, const core::ParamArena& arena, std::int64_t n,
                     std::int64_t c, std::int64_t h, std::int64_t w);
  BnStep make_bn(const nn::BatchNorm2d& bn, const core::ParamArena& arena,
                 const core::Conv2dDims& d);
  const tensor::Tensor& run_conv(ConvStep& s, const tensor::Tensor& x, int slot);
  const tensor::Tensor& run_bn(BnStep& s, const tensor::Tensor& x, int slot);

  std::int64_t batch_, in_channels_, height_, width_, num_classes_;
  const SnapshotStore* store_;
  core::Workspace ws_;
  ConvStep stem_;
  std::unique_ptr<BnStep> stem_bn_;
  tensor::Tensor stem_relu_;
  std::vector<BlockStep> blocks_;
  tensor::Tensor pooled_, head_mm_, logits_;
  std::vector<tensor::Tensor> head_w_, head_b_;  ///< per slot
};

}  // namespace yf::serve
