#include "core/conv_math.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/gemm.hpp"
#include "core/kernels.hpp"
#include "core/kernels/kernel_table.hpp"
#include "core/workspace.hpp"

namespace yf::core {

namespace t = yf::tensor;

namespace {

/// Output positions o in [lo, hi) of one spatial axis whose input
/// coordinate o*stride + k - pad lies inside [0, size): the taps of
/// kernel offset k that read real input rather than padding.
struct Span {
  std::int64_t lo, hi;
};
Span valid_outputs(std::int64_t k, std::int64_t pad, std::int64_t stride, std::int64_t size,
                   std::int64_t out) {
  const std::int64_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  const std::int64_t last = size - 1 + pad - k;  // largest o*stride in range
  const std::int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  return {std::min(lo, hi), hi};
}

/// colT row (c, ky, kx), pixel (n, oy, ox) = input[n, c, oy*s+ky-pad,
/// ox*s+kx-pad], 0 in the padding: per (tap, image) block of OH·OW
/// pixels, one zero fill when the tap reaches into the padding, then one
/// contiguous (stride 1) or strided row segment per output row.
void im2col(const double* in, const Conv2dDims& d, double* colT) {
  const std::int64_t cols = d.pixels(), plane = d.h * d.w, npix = d.oh * d.ow;
  for (std::int64_t c = 0; c < d.c; ++c)
    for (std::int64_t ky = 0; ky < d.kh; ++ky) {
      const Span ys = valid_outputs(ky, d.pad, d.stride, d.h, d.oh);
      for (std::int64_t kx = 0; kx < d.kw; ++kx) {
        const Span xs = valid_outputs(kx, d.pad, d.stride, d.w, d.ow);
        const bool padded = ys.lo > 0 || ys.hi < d.oh || xs.lo > 0 || xs.hi < d.ow;
        double* row = colT + ((c * d.kh + ky) * d.kw + kx) * cols;
        for (std::int64_t n = 0; n < d.n; ++n) {
          double* dst = row + n * npix;
          if (padded) std::fill(dst, dst + npix, 0.0);
          if (xs.lo == xs.hi) continue;
          const double* src = in + (n * d.c + c) * plane;
          for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
            double* drow = dst + oy * d.ow + xs.lo;
            const double* srow =
                src + (oy * d.stride + ky - d.pad) * d.w + (xs.lo * d.stride + kx - d.pad);
            for (std::int64_t i = 0; i < xs.hi - xs.lo; ++i) drow[i] = srow[i * d.stride];
          }
        }
      }
    }
}

/// dinput += the col2im scatter of dcolT row r = (c, ky, kx): each
/// output row adds one contiguous (stride 1) or strided input-row
/// segment.
void col2im_row_add(const double* src, std::int64_t r, const Conv2dDims& d, double* din) {
  const std::int64_t c = r / (d.kh * d.kw), ky = r / d.kw % d.kh, kx = r % d.kw;
  const Span ys = valid_outputs(ky, d.pad, d.stride, d.h, d.oh);
  const Span xs = valid_outputs(kx, d.pad, d.stride, d.w, d.ow);
  if (ys.lo == ys.hi || xs.lo == xs.hi) return;  // the tap reads only padding
  for (std::int64_t n = 0; n < d.n; ++n) {
    double* dst = din + (n * d.c + c) * d.h * d.w;
    for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
      const double* srow = src + (n * d.oh + oy) * d.ow;
      const std::int64_t base = (oy * d.stride + ky - d.pad) * d.w + kx - d.pad;
      if (d.stride == 1) {
        double* drow = dst + base + xs.lo;
        const double* s = srow + xs.lo;
        for (std::int64_t i = 0; i < xs.hi - xs.lo; ++i) drow[i] += s[i];
      } else {
        for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) dst[base + ox * d.stride] += srow[ox];
      }
    }
  }
}

}  // namespace

Conv2dDims conv2d_dims(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                       std::int64_t f, std::int64_t kh, std::int64_t kw, std::int64_t stride,
                       std::int64_t pad) {
  if (n < 1 || c < 1 || h < 1 || w < 1 || f < 1 || kh < 1 || kw < 1) {
    throw std::invalid_argument("conv2d: input and filter sizes must be positive");
  }
  if (stride < 1) throw std::invalid_argument("conv2d: stride must be >= 1");
  if (pad < 0) throw std::invalid_argument("conv2d: pad must be >= 0");
  // Checked before dividing: (h + 2*pad - kh) / stride truncates toward
  // zero, so a kernel one row too large would still yield one output row.
  if (kh > h + 2 * pad || kw > w + 2 * pad) {
    throw std::invalid_argument("conv2d: kernel larger than padded input");
  }
  Conv2dDims d;
  d.n = n;
  d.c = c;
  d.h = h;
  d.w = w;
  d.f = f;
  d.kh = kh;
  d.kw = kw;
  d.stride = stride;
  d.pad = pad;
  d.oh = (h + 2 * pad - kh) / stride + 1;
  d.ow = (w + 2 * pad - kw) / stride + 1;
  return d;
}

void conv2d_forward(const t::Tensor& input, const t::Tensor& weight, const t::Tensor& bias,
                    const Conv2dDims& d, t::Tensor& colT, t::Tensor& out) {
  const std::int64_t cols = d.pixels(), npix = d.oh * d.ow;
  im2col(input.data().data(), d, colT.data().data());
  Workspace& ws = transient_workspace();
  const auto mark = ws.mark();
  double* outT = ws.acquire_span(d.f * cols).data();
  gemm(GemmVariant::kNN, outT, weight.data().data(), colT.data().data(), d.f, cols, d.patch());
  const double* pb = bias.data().data();
  double* po = out.data().data();
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t fi = 0; fi < d.f; ++fi) {
      const double* src = outT + fi * cols + n * npix;
      double* dst = po + (n * d.f + fi) * npix;
      const double bf = pb[fi];
      for (std::int64_t p = 0; p < npix; ++p) dst[p] = src[p] + bf;
    }
  ws.rollback(mark);
}

void conv2d_backward(const t::Tensor& dout, const t::Tensor& colT, const t::Tensor& weight,
                     const Conv2dDims& d, const Conv2dGrads& grads) {
  const std::int64_t cols = d.pixels(), npix = d.oh * d.ow, ckk = d.patch();
  Workspace& ws = transient_workspace();
  const auto mark = ws.mark();
  // dOutT [F, N·OH·OW]: the NCHW gradient with N and F swapped, one
  // contiguous OH·OW plane at a time.
  double* doutT = ws.acquire_span(d.f * cols).data();
  const double* pd = dout.data().data();
  for (std::int64_t n = 0; n < d.n; ++n)
    for (std::int64_t fi = 0; fi < d.f; ++fi) {
      const double* src = pd + (n * d.f + fi) * npix;
      std::copy(src, src + npix, doutT + fi * cols + n * npix);
    }

  if (grads.bias) {
    // Per filter, one sequential sum from 0.0 over the pixels in order,
    // then one add into the accumulator: the row-major column sum.
    double* gb = grads.bias->data().data();
    for (std::int64_t fi = 0; fi < d.f; ++fi) {
      double sum = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) sum += doutT[fi * cols + j];
      gb[fi] += sum;
    }
  }
  if (grads.weight) {
    const auto prod = ws.acquire_span(d.f * ckk);
    gemm(GemmVariant::kNT, prod.data(), doutT, colT.data().data(), d.f, ckk, cols);
    axpy(grads.weight->data(), prod, 1.0);
  }
  if (grads.input) {
    // dcolT = Wᵀ·dOutT, formed kGemmMR patch rows at a time (through Wᵀ,
    // a small [C·KH·KW, F] copy, so each block is a plain NN product)
    // and scattered by col2im while the block is cache-hot; dcolT itself
    // is never stored whole. Each input element must receive its
    // contributions in the row-major conv's order, ascending output
    // pixel (oy, ox); for one element that is descending kernel tap
    // (ky, kx), so the rows run from the last one down.
    const double* pw = weight.data().data();
    double* wT = ws.acquire_span(ckk * d.f).data();
    for (std::int64_t fi = 0; fi < d.f; ++fi)
      for (std::int64_t r = 0; r < ckk; ++r) wT[r * d.f + fi] = pw[fi * ckk + r];
    double* block = ws.acquire_span(detail::kGemmMR * cols).data();
    double* din = grads.input->data().data();
    for (std::int64_t r1 = ckk; r1 > 0; r1 -= detail::kGemmMR) {
      const std::int64_t r0 = std::max<std::int64_t>(0, r1 - detail::kGemmMR);
      gemm(GemmVariant::kNN, block, wT + r0 * d.f, doutT, r1 - r0, cols, d.f);
      for (std::int64_t r = r1 - 1; r >= r0; --r) {
        col2im_row_add(block + (r - r0) * cols, r, d, din);
      }
    }
  }
  ws.rollback(mark);
}

void batchnorm2d_stats_into(t::Tensor& mean, t::Tensor& inv_std, const t::Tensor& x,
                            std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                            double eps) {
  const auto m = n * h * w;  // elements per channel
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double s = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t k = 0; k < h * w; ++k) s += x[(i * c + ch) * h * w + k];
    const double mu = s * inv_m;
    double var = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t k = 0; k < h * w; ++k) {
        const double dd = x[(i * c + ch) * h * w + k] - mu;
        var += dd * dd;
      }
    var *= inv_m;
    mean[ch] = mu;
    inv_std[ch] = 1.0 / std::sqrt(var + eps);
  }
}

void batchnorm2d_normalize_into(t::Tensor& out, t::Tensor& xhat, const t::Tensor& x,
                                const t::Tensor& gamma, const t::Tensor& beta,
                                const t::Tensor& mean, const t::Tensor& inv_std, std::int64_t n,
                                std::int64_t c, std::int64_t h, std::int64_t w) {
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const double g = gamma[ch], b = beta[ch];
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t k = 0; k < h * w; ++k) {
        const auto idx = (i * c + ch) * h * w + k;
        xhat[idx] = (x[idx] - mean[ch]) * inv_std[ch];
        out[idx] = g * xhat[idx] + b;
      }
  }
}

void global_avg_pool_into(t::Tensor& out, const t::Tensor& x, std::int64_t n, std::int64_t c,
                          std::int64_t h, std::int64_t w) {
  const double inv = 1.0 / static_cast<double>(h * w);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < c; ++j) {
      double s = 0.0;
      for (std::int64_t k = 0; k < h * w; ++k) s += x[(i * c + j) * h * w + k];
      out[i * c + j] = s * inv;
    }
}

}  // namespace yf::core
