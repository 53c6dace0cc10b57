// Channel-major convolution tests (core/conv_math.hpp, DESIGN.md §9).
//
// The reference below is the row-major im2col convolution: col
// [N·OH·OW, C·KH·KW], forward col·Wᵀ (kNT) plus bias scattered to NCHW,
// dW = dOutᵀ·col (kTN), dcol = dOut·W (kNN) scattered back by col2im in
// ascending output-pixel order, db a sequential column sum. The shared
// kernels use the transposed layout with the filters on the GEMM's M
// side; per output element the products and their k order are the same,
// so forward, dX, dW and db must match the reference EXPECT_EQ on every
// shape, on both kernel backends (the suite reruns as conv_math_test_
// scalar / _simd).
#include "core/conv_math.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/gemm.hpp"
#include "core/kernels.hpp"
#include "tensor/random.hpp"

namespace core = yf::core;
namespace t = yf::tensor;

namespace {

struct Shape {
  std::int64_t n, c, h, w, f, kh, kw, stride, pad;
};

std::string name(const Shape& s) {
  return "N" + std::to_string(s.n) + " C" + std::to_string(s.c) + " " + std::to_string(s.h) +
         "x" + std::to_string(s.w) + " F" + std::to_string(s.f) + " K" + std::to_string(s.kh) +
         "x" + std::to_string(s.kw) + " s" + std::to_string(s.stride) + " p" +
         std::to_string(s.pad);
}

core::Conv2dDims dims_of(const Shape& s) {
  return core::conv2d_dims(s.n, s.c, s.h, s.w, s.f, s.kh, s.kw, s.stride, s.pad);
}

// -- Row-major reference ------------------------------------------------------

/// col [N·OH·OW, C·KH·KW]: row (n, oy, ox), column (c, ky, kx).
t::Tensor ref_im2col(const t::Tensor& input, const core::Conv2dDims& d) {
  t::Tensor col(t::Shape{d.pixels(), d.patch()});
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t oy = 0; oy < d.oh; ++oy)
      for (std::int64_t ox = 0; ox < d.ow; ++ox) {
        const auto row = (n * d.oh + oy) * d.ow + ox;
        for (std::int64_t c = 0; c < d.c; ++c)
          for (std::int64_t ky = 0; ky < d.kh; ++ky)
            for (std::int64_t kx = 0; kx < d.kw; ++kx) {
              const auto iy = oy * d.stride + ky - d.pad;
              const auto ix = ox * d.stride + kx - d.pad;
              const bool inside = iy >= 0 && iy < d.h && ix >= 0 && ix < d.w;
              col[row * d.patch() + (c * d.kh + ky) * d.kw + kx] =
                  inside ? input[((n * d.c + c) * d.h + iy) * d.w + ix] : 0.0;
            }
      }
  return col;
}

/// dinput += col2im(dcol), visiting output pixels in ascending order.
void ref_col2im_add(const t::Tensor& dcol, const core::Conv2dDims& d, t::Tensor& dinput) {
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t oy = 0; oy < d.oh; ++oy)
      for (std::int64_t ox = 0; ox < d.ow; ++ox) {
        const auto row = (n * d.oh + oy) * d.ow + ox;
        for (std::int64_t c = 0; c < d.c; ++c)
          for (std::int64_t ky = 0; ky < d.kh; ++ky)
            for (std::int64_t kx = 0; kx < d.kw; ++kx) {
              const auto iy = oy * d.stride + ky - d.pad;
              const auto ix = ox * d.stride + kx - d.pad;
              if (iy < 0 || iy >= d.h || ix < 0 || ix >= d.w) continue;
              dinput[((n * d.c + c) * d.h + iy) * d.w + ix] +=
                  dcol[row * d.patch() + (c * d.kh + ky) * d.kw + kx];
            }
      }
}

t::Tensor ref_forward(const t::Tensor& x, const t::Tensor& w, const t::Tensor& b,
                      const core::Conv2dDims& d) {
  const t::Tensor col = ref_im2col(x, d);
  t::Tensor outmat(t::Shape{d.pixels(), d.f});
  core::gemm(core::GemmVariant::kNT, outmat.data().data(), col.data().data(), w.data().data(),
             d.pixels(), d.f, d.patch());
  t::Tensor out(t::Shape{d.n, d.f, d.oh, d.ow});
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t p = 0; p < d.oh * d.ow; ++p)
      for (std::int64_t fi = 0; fi < d.f; ++fi)
        out[(n * d.f + fi) * d.oh * d.ow + p] = outmat[(n * d.oh * d.ow + p) * d.f + fi] + b[fi];
  return out;
}

void ref_backward(const t::Tensor& dout, const t::Tensor& x, const t::Tensor& w,
                  const core::Conv2dDims& d, t::Tensor& dx, t::Tensor& dw, t::Tensor& db) {
  const std::int64_t rows = d.pixels(), npix = d.oh * d.ow;
  const t::Tensor col = ref_im2col(x, d);
  t::Tensor doutmat(t::Shape{rows, d.f});
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t p = 0; p < npix; ++p)
      for (std::int64_t fi = 0; fi < d.f; ++fi)
        doutmat[(n * npix + p) * d.f + fi] = dout[(n * d.f + fi) * npix + p];

  t::Tensor bias_sum(t::Shape{d.f});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t fi = 0; fi < d.f; ++fi) bias_sum[fi] += doutmat[r * d.f + fi];
  core::axpy(db.data(), bias_sum.data(), 1.0);

  t::Tensor prod(t::Shape{d.f, d.patch()});
  core::gemm(core::GemmVariant::kTN, prod.data().data(), doutmat.data().data(),
             col.data().data(), d.f, d.patch(), rows);
  core::axpy(dw.data(), prod.data(), 1.0);

  t::Tensor dcol(t::Shape{rows, d.patch()});
  core::gemm(core::GemmVariant::kNN, dcol.data().data(), doutmat.data().data(),
             w.data().data(), rows, d.patch(), d.f);
  ref_col2im_add(dcol, d, dx);
}

void expect_eq(const t::Tensor& got, const t::Tensor& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i] && mismatches++ < 3) {
      ADD_FAILURE() << what << " element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
}

/// Forward, dX, dW and db of the shared kernels against the reference,
/// with non-zero starting gradients so the += contract is checked too.
void check_shape(const Shape& s) {
  SCOPED_TRACE(name(s));
  const core::Conv2dDims d = dims_of(s);
  t::Rng rng(static_cast<std::uint64_t>(s.n * 131 + s.c * 17 + s.f * 7 + s.kh + s.stride));
  const t::Tensor x = rng.normal_tensor({d.n, d.c, d.h, d.w});
  const t::Tensor w = rng.normal_tensor({d.f, d.c, d.kh, d.kw});
  const t::Tensor b = rng.normal_tensor({d.f});
  const t::Tensor dout = rng.normal_tensor({d.n, d.f, d.oh, d.ow});
  const t::Tensor dx0 = rng.normal_tensor({d.n, d.c, d.h, d.w});
  const t::Tensor dw0 = rng.normal_tensor({d.f, d.c, d.kh, d.kw});
  const t::Tensor db0 = rng.normal_tensor({d.f});

  // Dirty output buffers: every element must be written.
  t::Tensor colT = t::Tensor::full({d.patch(), d.pixels()}, 7.0);
  t::Tensor out = t::Tensor::full({d.n, d.f, d.oh, d.ow}, 7.0);
  core::conv2d_forward(x, w, b, d, colT, out);
  expect_eq(out, ref_forward(x, w, b, d), "forward");

  t::Tensor dx = dx0.clone(), dw = dw0.clone(), db = db0.clone();
  core::conv2d_backward(dout, colT, w, d, {&dx, &dw, &db});
  t::Tensor rdx = dx0.clone(), rdw = dw0.clone(), rdb = db0.clone();
  ref_backward(dout, x, w, d, rdx, rdw, rdb);
  expect_eq(dx, rdx, "dX");
  expect_eq(dw, rdw, "dW");
  expect_eq(db, rdb, "db");

  // A null target is skipped and leaves the others unchanged.
  t::Tensor only_dw = dw0.clone();
  core::conv2d_backward(dout, colT, w, d, {nullptr, &only_dw, nullptr});
  expect_eq(only_dw, rdw, "dW alone");
}

}  // namespace

TEST(ConvMath, MiniResNetShapesMatchRowMajorReference) {
  // The nine convolutions of one cnn_async MiniResNet step: batch 32,
  // 3x8x8 images, 4 base channels, one block per stage.
  const Shape shapes[] = {
      {32, 3, 8, 8, 4, 3, 3, 1, 1},    // stem
      {32, 4, 8, 8, 4, 3, 3, 1, 1},    // block0 conv1
      {32, 4, 8, 8, 4, 3, 3, 1, 1},    // block0 conv2
      {32, 4, 8, 8, 8, 3, 3, 2, 1},    // block1 conv1 (downsample)
      {32, 8, 4, 4, 8, 3, 3, 1, 1},    // block1 conv2
      {32, 4, 8, 8, 8, 1, 1, 2, 0},    // block1 projection
      {32, 8, 4, 4, 16, 3, 3, 2, 1},   // block2 conv1 (downsample)
      {32, 16, 2, 2, 16, 3, 3, 1, 1},  // block2 conv2
      {32, 8, 4, 4, 16, 1, 1, 2, 0},   // block2 projection
  };
  for (const Shape& s : shapes) check_shape(s);
}

TEST(ConvMath, PatchDeeperThanOneKPanelMatchesReference) {
  // C·KH·KW = 288 > KC = 256: the forward product spans two k-panels.
  check_shape({2, 32, 6, 6, 8, 3, 3, 1, 1});
}

TEST(ConvMath, FilterCountNotAMultipleOfTheRegisterTile) {
  check_shape({2, 3, 7, 7, 5, 3, 3, 1, 1});
  check_shape({3, 2, 5, 5, 7, 3, 3, 1, 1});
}

TEST(ConvMath, BatchOfOne) { check_shape({1, 4, 5, 5, 6, 3, 3, 1, 1}); }

TEST(ConvMath, StrideTwoWithAndWithoutPadding) {
  check_shape({2, 3, 9, 9, 4, 3, 3, 2, 0});
  check_shape({2, 3, 8, 8, 4, 3, 3, 2, 1});
  check_shape({2, 3, 7, 6, 4, 3, 3, 2, 1});
}

TEST(ConvMath, OneByOneKernels) {
  check_shape({2, 6, 5, 5, 3, 1, 1, 1, 0});
  check_shape({2, 6, 5, 5, 3, 1, 1, 2, 0});
}

TEST(ConvMath, WidePaddingRectangularKernelsAndTinyInputs) {
  // pad 2 around a 3x3 input: some taps read only padding.
  check_shape({2, 2, 3, 3, 3, 3, 3, 1, 2});
  check_shape({2, 3, 6, 5, 4, 3, 2, 1, 1});
  // Kernel taller and wider than the input: every tap row but one is
  // padding.
  check_shape({2, 3, 1, 1, 4, 3, 3, 1, 1});
  check_shape({2, 2, 1, 5, 3, 3, 3, 1, 1});
}

TEST(ConvMath, DimsRejectInvalidGeometry) {
  // A 3x3 kernel on a 2x2 input without padding: (2-3)/2 + 1 would
  // truncate to one output row.
  EXPECT_THROW(core::conv2d_dims(1, 1, 2, 2, 1, 3, 3, 2, 0), std::invalid_argument);
  EXPECT_THROW(core::conv2d_dims(1, 1, 4, 4, 1, 3, 3, 1, -1), std::invalid_argument);
  EXPECT_THROW(core::conv2d_dims(1, 1, 4, 4, 1, 3, 3, 0, 1), std::invalid_argument);
  EXPECT_THROW(core::conv2d_dims(0, 1, 4, 4, 1, 3, 3, 1, 1), std::invalid_argument);
  const auto d = core::conv2d_dims(1, 1, 2, 2, 1, 3, 3, 2, 1);
  EXPECT_EQ(d.oh, 1);
  EXPECT_EQ(d.ow, 1);
}
