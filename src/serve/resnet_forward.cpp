#include "serve/resnet_forward.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace yf::serve {

namespace t = yf::tensor;

namespace {

std::vector<t::Tensor> slot_views(const SnapshotStore& store, const core::ParamArena& arena,
                                  const autograd::Variable& param, t::Shape shape) {
  const auto slot = arena.slot_index(param);
  std::vector<t::Tensor> views;
  views.reserve(static_cast<std::size_t>(store.slot_count()));
  for (int s = 0; s < store.slot_count(); ++s) {
    views.push_back(t::Tensor::view_of(store.slot_buffer(s), arena.offset(slot), shape));
  }
  return views;
}

}  // namespace

ResNetForward::ResNetForward(const nn::MiniResNet& model, const core::ParamArena& arena,
                             const SnapshotStore& store, std::int64_t batch, std::int64_t height,
                             std::int64_t width)
    : batch_(batch),
      in_channels_(model.stem().weight.value().dim(1)),
      height_(height),
      width_(width),
      num_classes_(model.head().out_features()),
      store_(&store) {
  if (batch < 1) throw std::invalid_argument("ResNetForward: batch must be positive");
  if (height < 1 || width < 1) throw std::invalid_argument("ResNetForward: bad image geometry");
  if (store.size() != arena.size()) {
    throw std::invalid_argument("ResNetForward: snapshot store does not match the arena");
  }

  stem_ = make_conv(model.stem(), arena, batch_, in_channels_, height_, width_);
  if (const auto* bn = model.stem_bn()) {
    stem_bn_ = std::make_unique<BnStep>(make_bn(*bn, arena, stem_.d));
  }
  stem_relu_ = ws_.acquire({batch_, stem_.d.f, stem_.d.oh, stem_.d.ow});

  std::int64_t c = stem_.d.f, h = stem_.d.oh, w = stem_.d.ow;
  blocks_.reserve(model.blocks().size());
  for (const auto& block : model.blocks()) {
    BlockStep bs;
    bs.residual_scale = block->residual_scale();
    bs.conv1 = make_conv(block->conv1(), arena, batch_, c, h, w);
    const core::Conv2dDims& d1 = bs.conv1.d;
    bs.relu1 = ws_.acquire({batch_, d1.f, d1.oh, d1.ow});
    bs.conv2 = make_conv(block->conv2(), arena, batch_, d1.f, d1.oh, d1.ow);
    const core::Conv2dDims& d2 = bs.conv2.d;
    if (const auto* bn = block->bn1()) bs.bn1 = std::make_unique<BnStep>(make_bn(*bn, arena, d1));
    if (const auto* bn = block->bn2()) bs.bn2 = std::make_unique<BnStep>(make_bn(*bn, arena, d2));
    if (const auto* proj = block->proj()) {
      bs.proj = std::make_unique<ConvStep>(make_conv(*proj, arena, batch_, c, h, w));
    }
    if (!bs.bn1) bs.scaled = ws_.acquire({batch_, d2.f, d2.oh, d2.ow});
    bs.sum = ws_.acquire({batch_, d2.f, d2.oh, d2.ow});
    bs.out = ws_.acquire({batch_, d2.f, d2.oh, d2.ow});
    c = d2.f;
    h = d2.oh;
    w = d2.ow;
    blocks_.push_back(std::move(bs));
  }

  pooled_ = ws_.acquire({batch_, c});
  head_mm_ = ws_.acquire({batch_, num_classes_});
  logits_ = ws_.acquire({batch_, num_classes_});
  head_w_ = slot_views(store, arena, model.head().weight, {c, num_classes_});
  head_b_ = slot_views(store, arena, model.head().bias, {num_classes_});
}

ResNetForward::ConvStep ResNetForward::make_conv(const nn::Conv2d& conv,
                                                 const core::ParamArena& arena, std::int64_t n,
                                                 std::int64_t c, std::int64_t h, std::int64_t w) {
  const auto& wt = conv.weight.value();
  ConvStep s;
  s.d = core::conv2d_dims(n, c, h, w, wt.dim(0), wt.dim(2), wt.dim(3), conv.stride(), conv.pad());
  s.wmat = slot_views(*store_, arena, conv.weight, {s.d.f, s.d.patch()});
  s.bias = slot_views(*store_, arena, conv.bias, {s.d.f});
  s.colT = ws_.acquire({s.d.patch(), s.d.pixels()});
  s.out = ws_.acquire({s.d.n, s.d.f, s.d.oh, s.d.ow});
  return s;
}

ResNetForward::BnStep ResNetForward::make_bn(const nn::BatchNorm2d& bn,
                                             const core::ParamArena& arena,
                                             const core::Conv2dDims& d) {
  BnStep s;
  s.n = d.n;
  s.c = d.f;
  s.h = d.oh;
  s.w = d.ow;
  s.eps = bn.eps();
  s.gamma = slot_views(*store_, arena, bn.gamma, {s.c});
  s.beta = slot_views(*store_, arena, bn.beta, {s.c});
  s.mean = ws_.acquire({s.c});
  s.inv_std = ws_.acquire({s.c});
  s.xhat = ws_.acquire({s.n, s.c, s.h, s.w});
  s.out = ws_.acquire({s.n, s.c, s.h, s.w});
  return s;
}

const t::Tensor& ResNetForward::run_conv(ConvStep& s, const t::Tensor& x, int slot) {
  const auto i = static_cast<std::size_t>(slot);
  core::conv2d_forward(x, s.wmat[i], s.bias[i], s.d, s.colT, s.out);
  return s.out;
}

const t::Tensor& ResNetForward::run_bn(BnStep& s, const t::Tensor& x, int slot) {
  core::batchnorm2d_stats_into(s.mean, s.inv_std, x, s.n, s.c, s.h, s.w, s.eps);
  core::batchnorm2d_normalize_into(s.out, s.xhat, x, s.gamma[static_cast<std::size_t>(slot)],
                                   s.beta[static_cast<std::size_t>(slot)], s.mean, s.inv_std, s.n,
                                   s.c, s.h, s.w);
  return s.out;
}

const t::Tensor& ResNetForward::forward(const t::Tensor& images, int slot) {
  if (images.ndim() != 4 || images.dim(0) != batch_ || images.dim(1) != in_channels_ ||
      images.dim(2) != height_ || images.dim(3) != width_) {
    throw std::invalid_argument("ResNetForward: image shape mismatch");
  }
  // Stem: conv -> (BN) -> relu, exactly MiniResNet::forward.
  const t::Tensor* x = &run_conv(stem_, images, slot);
  if (stem_bn_) x = &run_bn(*stem_bn_, *x, slot);
  t::relu_into(stem_relu_, *x);
  x = &stem_relu_;

  // Residual blocks, mirroring ResidualBlock::forward.
  for (auto& bs : blocks_) {
    const t::Tensor* branch = &run_conv(bs.conv1, *x, slot);
    if (bs.bn1) branch = &run_bn(*bs.bn1, *branch, slot);
    t::relu_into(bs.relu1, *branch);
    branch = &run_conv(bs.conv2, bs.relu1, slot);
    if (bs.bn2) branch = &run_bn(*bs.bn2, *branch, slot);
    if (!bs.bn1) {
      t::mul_scalar_into(bs.scaled, *branch, bs.residual_scale);
      branch = &bs.scaled;
    }
    const t::Tensor* skip = bs.proj ? &run_conv(*bs.proj, *x, slot) : x;
    t::add_into(bs.sum, *skip, *branch);
    t::relu_into(bs.out, bs.sum);
    x = &bs.out;
  }

  // Head: global average pool -> linear.
  core::global_avg_pool_into(pooled_, *x, x->dim(0), x->dim(1), x->dim(2), x->dim(3));
  t::matmul_into(head_mm_, pooled_, head_w_[static_cast<std::size_t>(slot)]);
  t::add_row_broadcast_into(logits_, head_mm_, head_b_[static_cast<std::size_t>(slot)]);
  return logits_;
}

void ResNetForward::warm(int slot) {
  t::Tensor zeros({batch_, in_channels_, height_, width_});
  forward(zeros, slot);
}

}  // namespace yf::serve
