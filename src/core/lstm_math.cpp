#include "core/lstm_math.hpp"

#include <algorithm>
#include <cmath>

#include "core/gemm.hpp"
#include "core/kernels.hpp"
#include "core/workspace.hpp"

namespace yf::core {

namespace t = yf::tensor;

namespace {

/// Same expressions as tensor::sigmoid_into / tanh_into, so the cell's
/// activations round exactly like the elementwise ops they replace.
double sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

}  // namespace

void lstm_cell_forward(const t::Tensor& x, const t::Tensor& h_prev, const t::Tensor& c_prev,
                       const t::Tensor& w_x, const t::Tensor& w_h, const t::Tensor& b,
                       t::Tensor& gates, t::Tensor& tanh_c, double* h, double* c,
                       std::int64_t ld) {
  const std::int64_t rows = x.dim(0), in = x.dim(1), hid = h_prev.dim(1), g4 = 4 * hid;
  Workspace& ws = transient_workspace();
  const auto mark = ws.mark();
  double* z = gates.data().data();
  double* zh = ws.acquire_span(rows * g4).data();
  gemm(GemmVariant::kNN, z, x.data().data(), w_x.data().data(), rows, g4, in);
  gemm(GemmVariant::kNN, zh, h_prev.data().data(), w_h.data().data(), rows, g4, hid);
  const double* pb = b.data().data();
  const double* cp = c_prev.data().data();
  double* tc = tanh_c.data().data();
  for (std::int64_t r = 0; r < rows; ++r) {
    double* zr = z + r * g4;
    const double* zhr = zh + r * g4;
    for (std::int64_t j = 0; j < g4; ++j) zr[j] = (zr[j] + zhr[j]) + pb[j];
    for (std::int64_t j = 0; j < hid; ++j) {
      const double ig = sigmoid(zr[j]);
      const double fg = sigmoid(zr[hid + j]);
      const double gg = std::tanh(zr[2 * hid + j]);
      const double og = sigmoid(zr[3 * hid + j]);
      zr[j] = ig;
      zr[hid + j] = fg;
      zr[2 * hid + j] = gg;
      zr[3 * hid + j] = og;
      const double cv = fg * cp[r * hid + j] + ig * gg;
      const double tv = std::tanh(cv);
      c[r * ld + j] = cv;
      tc[r * hid + j] = tv;
      h[r * ld + j] = og * tv;
    }
  }
  ws.rollback(mark);
}

void lstm_cell_backward(const double* dh, const double* dc, std::int64_t ld,
                        const t::Tensor& gates, const t::Tensor& tanh_c, const t::Tensor& x,
                        const t::Tensor& h_prev, const t::Tensor& c_prev, const t::Tensor& w_x,
                        const t::Tensor& w_h, const LstmCellGrads& grads) {
  const std::int64_t rows = x.dim(0), in = x.dim(1), hid = h_prev.dim(1), g4 = 4 * hid;
  Workspace& ws = transient_workspace();
  const auto mark = ws.mark();
  double* dz = ws.acquire_span(rows * g4).data();
  double* prod = ws.acquire_span(std::max({rows * in, rows * hid, in * g4, hid * g4})).data();

  // dz, elementwise: the chain rule through h = o*tanh(c),
  // c = f*c_prev + i*g and the four activations, each factor in the
  // order the composed cell's pullbacks multiply it.
  const double* pg = gates.data().data();
  const double* tc = tanh_c.data().data();
  const double* cp = c_prev.data().data();
  double* dcp = grads.c_prev ? grads.c_prev->data().data() : nullptr;
  for (std::int64_t r = 0; r < rows; ++r) {
    const double* gr = pg + r * g4;
    double* dzr = dz + r * g4;
    for (std::int64_t j = 0; j < hid; ++j) {
      const double ig = gr[j], fg = gr[hid + j], gg = gr[2 * hid + j], og = gr[3 * hid + j];
      const double tv = tc[r * hid + j];
      const double dhv = dh[r * ld + j];
      const double dcv = dc[r * ld + j] + (dhv * og) * (1.0 - tv * tv);
      dzr[j] = (dcv * gg) * (ig * (1.0 - ig));
      dzr[hid + j] = (dcv * cp[r * hid + j]) * (fg * (1.0 - fg));
      dzr[2 * hid + j] = (dcv * ig) * (1.0 - gg * gg);
      dzr[3 * hid + j] = (dhv * tv) * (og * (1.0 - og));
      if (dcp) dcp[r * hid + j] += dcv * fg;
    }
  }

  // Each target accumulates a freshly computed product, as the composed
  // matmul / add_row_broadcast pullbacks did.
  auto accumulate = [&](t::Tensor* target, std::int64_t n) {
    axpy(target->data(), std::span<const double>(prod, static_cast<std::size_t>(n)), 1.0);
  };
  if (grads.b) {
    fill(std::span<double>(prod, static_cast<std::size_t>(g4)), 0.0);
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t j = 0; j < g4; ++j) prod[j] += dz[r * g4 + j];
    accumulate(grads.b, g4);
  }
  if (grads.x) {
    gemm(GemmVariant::kNT, prod, dz, w_x.data().data(), rows, in, g4);
    accumulate(grads.x, rows * in);
  }
  if (grads.w_x) {
    gemm(GemmVariant::kTN, prod, x.data().data(), dz, in, g4, rows);
    accumulate(grads.w_x, in * g4);
  }
  if (grads.h_prev) {
    gemm(GemmVariant::kNT, prod, dz, w_h.data().data(), rows, hid, g4);
    accumulate(grads.h_prev, rows * hid);
  }
  if (grads.w_h) {
    gemm(GemmVariant::kTN, prod, h_prev.data().data(), dz, hid, g4, rows);
    accumulate(grads.w_h, hid * g4);
  }
  ws.rollback(mark);
}

}  // namespace yf::core
