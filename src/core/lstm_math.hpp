// Shared LSTM cell math (gate layout i|f|g|o, DESIGN.md §8).
//
// Single home for one cell step: the autograd op `autograd::lstm_cell`
// (training, on either node owner) and the tape-free serving forward
// (serve::LMForward) both call lstm_cell_forward, so served hidden
// states are bit-identical to the training forward by construction —
// there is no second implementation to drift.
//
// Both kernels keep the per-element arithmetic and GEMM layouts of the
// cell composed from elementwise autograd ops (the reference in
// tests/lstm_test.cpp), so the forward is bit-identical to it. Product
// and dz buffers are transient: they come from a per-thread
// core::Workspace and are released before each call returns, so a
// steady-state step allocates nothing and no per-node product buffer
// is kept.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace yf::core {

/// One cell step over B rows; x [B, I], h_prev and c_prev [B, H],
/// w_x [I, 4H], w_h [H, 4H], b [4H]:
///
///   z = (x @ w_x + h_prev @ w_h) + b
///   i, f, o = sigmoid(z_i, z_f, z_o);  g = tanh(z_g)
///   c = f*c_prev + i*g;  h = o*tanh(c)
///
/// `gates` [B, 4H] receives the post-activation gates and `tanh_c`
/// [B, H] receives tanh(c): the values the pullback reads. h and c are
/// written row by row with row stride `ld`, so they may be the two
/// column blocks of one [B, 2H] buffer (ld = 2H) or separate [B, H]
/// tensors (ld = H). Shapes are the caller's contract (the autograd op
/// validates them).
void lstm_cell_forward(const tensor::Tensor& x, const tensor::Tensor& h_prev,
                       const tensor::Tensor& c_prev, const tensor::Tensor& w_x,
                       const tensor::Tensor& w_h, const tensor::Tensor& b, tensor::Tensor& gates,
                       tensor::Tensor& tanh_c, double* h, double* c, std::int64_t ld);

/// Gradient accumulators of lstm_cell_backward; a null target is skipped.
struct LstmCellGrads {
  tensor::Tensor* x = nullptr;       ///< [B, I]
  tensor::Tensor* h_prev = nullptr;  ///< [B, H]
  tensor::Tensor* c_prev = nullptr;  ///< [B, H]
  tensor::Tensor* w_x = nullptr;     ///< [I, 4H]
  tensor::Tensor* w_h = nullptr;     ///< [H, 4H]
  tensor::Tensor* b = nullptr;       ///< [4H]
};

/// Pullback of lstm_cell_forward. `dh` and `dc` are the output
/// gradients (row stride `ld`); `gates` and `tanh_c` are the forward's
/// outputs. Every non-null target in `grads` is accumulated into (+=).
void lstm_cell_backward(const double* dh, const double* dc, std::int64_t ld,
                        const tensor::Tensor& gates, const tensor::Tensor& tanh_c,
                        const tensor::Tensor& x, const tensor::Tensor& h_prev,
                        const tensor::Tensor& c_prev, const tensor::Tensor& w_x,
                        const tensor::Tensor& w_h, const LstmCellGrads& grads);

}  // namespace yf::core
