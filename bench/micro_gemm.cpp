// GEMM microbenchmarks (google-benchmark): the packed register-tiled
// subsystem (core/gemm.hpp) on LM-shaped products -- tied-embedding
// decode (NT), LSTM 4-gate pre-activations (NN) -- and the
// channel-major conv products (forward NN, dW NT, dX blocks NN), plus square
// compute-bound shapes, each across the scalar and AVX2 kernel backends.
// Args are {m, n, k} with C = m x n.
//
// BM_GemmPackedForced / BM_GemmSmallForced run the *forced* packed and
// small engines on cubes around the dispatch thresholds; their output
// pins core::detail::kGemmSmallWork / kGemmSmallRows (gemm.hpp).
//
// BM_Conv2dForward / BM_Conv2dBackward time the whole shared conv
// kernels (core/conv_math.hpp: im2col, GEMMs, bias, col2im) on the nine
// convolutions of one cnn_async MiniResNet step (eight shapes: block0's
// two convs share one); items_processed counts
// multiply-adds (F·C·KH·KW·N·OH·OW forward, twice that backward for dW
// and dX), so items/s reads directly against the GEMM rows above.
// Results land in BENCH_micro_gemm.json via yfb::JsonReporter.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "core/conv_math.hpp"
#include "core/gemm.hpp"
#include "core/kernels/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

namespace core = yf::core;
namespace t = yf::tensor;

/// Force `backend` for one benchmark run (skips simd on machines
/// without AVX2), restoring the process default on destruction.
class BackendScope {
 public:
  BackendScope(benchmark::State& state, core::KernelBackend backend)
      : previous_(core::active_kernel_backend()) {
    if (backend == core::KernelBackend::kSimd && !core::simd_supported()) {
      state.SkipWithError("simd backend unsupported on this machine");
      ok_ = false;
      return;
    }
    core::set_kernel_backend(backend);
    state.SetLabel(core::kernel_backend_name(backend));
  }
  ~BackendScope() {
    if (ok_) core::set_kernel_backend(previous_);
  }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;
  explicit operator bool() const { return ok_; }

 private:
  core::KernelBackend previous_;
  bool ok_ = true;
};

struct Operands {
  t::Tensor a, b, c;
};

Operands make_operands(core::GemmVariant v, std::int64_t m, std::int64_t n, std::int64_t k) {
  t::Rng rng(29);
  Operands ops;
  ops.a = v == core::GemmVariant::kTN ? rng.normal_tensor({k, m}) : rng.normal_tensor({m, k});
  ops.b = v == core::GemmVariant::kNT ? rng.normal_tensor({n, k}) : rng.normal_tensor({k, n});
  ops.c = t::Tensor(t::Shape{m, n});
  return ops;
}

void run_gemm(benchmark::State& state, core::GemmVariant v, core::KernelBackend backend) {
  BackendScope scope(state, backend);
  if (!scope) return;
  const auto m = state.range(0), n = state.range(1), k = state.range(2);
  auto ops = make_operands(v, m, n, k);
  for (auto _ : state) {
    core::gemm(v, ops.c.data().data(), ops.a.data().data(), ops.b.data().data(), m, n, k);
    benchmark::DoNotOptimize(ops.c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}

void BM_GemmNn(benchmark::State& state, core::KernelBackend backend) {
  run_gemm(state, core::GemmVariant::kNN, backend);
}
void BM_GemmNt(benchmark::State& state, core::KernelBackend backend) {
  run_gemm(state, core::GemmVariant::kNT, backend);
}
void BM_GemmTn(benchmark::State& state, core::KernelBackend backend) {
  run_gemm(state, core::GemmVariant::kTN, backend);
}

// LM shapes (micro_train_step's 8x17 config): LSTM 4-gate pre-activation
// x[B,E] @ Wx[E,4H], BPTT-batched logits decode [B*T,H] @ E[V,H]^T, and
// the matmul pullback's TN product; the channel-major conv products of
// a 4->8 3x3 stride-2 conv over 32 8x8 images (forward W[F,CKK] @
// colT[CKK,N*OH*OW], dW = dOutT @ colT^T, and one 4-row block of
// dcolT = W^T @ dOutT, formed as NN through a W^T copy); square shapes
// for headline packed throughput.
#define YF_GEMM_BENCH(fn)                                                         \
  BENCHMARK_CAPTURE(fn, scalar, core::KernelBackend::kScalar)->Apply(fn##_args);  \
  BENCHMARK_CAPTURE(fn, simd, core::KernelBackend::kSimd)->Apply(fn##_args)

void BM_GemmNn_args(benchmark::internal::Benchmark* b) {
  b->Args({8, 96, 24})      // LSTM 4-gate: x[8,24] @ Wx[24,96]
      ->Args({136, 96, 24})  // BPTT-batched gates (B*T rows)
      ->Args({8, 512, 512})  // skinny headline shape (matmul baseline)
      ->Args({8, 512, 36})   // conv forward: W @ colT
      ->Args({4, 512, 8})    // conv dX: one 4-row block of W^T @ dOutT
      ->Args({256, 256, 256});
}
void BM_GemmNt_args(benchmark::internal::Benchmark* b) {
  b->Args({136, 32, 24})    // tied decode [B*T,H] @ E[V,H]^T
      ->Args({8, 36, 512})   // conv dW = dOutT @ colT^T
      ->Args({256, 256, 256});
}
void BM_GemmTn_args(benchmark::internal::Benchmark* b) {
  b->Args({24, 96, 136})    // dWx = x^T @ dGates
      ->Args({256, 256, 256});
}

YF_GEMM_BENCH(BM_GemmNn);
YF_GEMM_BENCH(BM_GemmNt);
YF_GEMM_BENCH(BM_GemmTn);

// -- Small-path crossover: forced engines on n^3 cubes. ----------------------
// The dispatch thresholds in core/gemm.hpp are pinned from this table:
// below the crossover the unpacked small path must win, above it the
// packed hierarchy must win, on both backends.

void BM_GemmPackedForced(benchmark::State& state, core::KernelBackend backend) {
  BackendScope scope(state, backend);
  if (!scope) return;
  const auto n = state.range(0);
  auto ops = make_operands(core::GemmVariant::kNN, n, n, n);
  for (auto _ : state) {
    core::detail::gemm_packed(core::GemmVariant::kNN, ops.c.data().data(), ops.a.data().data(),
                              ops.b.data().data(), n, n, n);
    benchmark::DoNotOptimize(ops.c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_GemmSmallForced(benchmark::State& state, core::KernelBackend backend) {
  BackendScope scope(state, backend);
  if (!scope) return;
  const auto n = state.range(0);
  auto ops = make_operands(core::GemmVariant::kNN, n, n, n);
  for (auto _ : state) {
    core::detail::gemm_small(core::GemmVariant::kNN, ops.c.data().data(), ops.a.data().data(),
                             ops.b.data().data(), n, n, n);
    benchmark::DoNotOptimize(ops.c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_GemmCrossover_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {8, 16, 24, 32, 48, 64}) b->Args({n});
}
BENCHMARK_CAPTURE(BM_GemmPackedForced, scalar, core::KernelBackend::kScalar)
    ->Apply(BM_GemmCrossover_args);
BENCHMARK_CAPTURE(BM_GemmPackedForced, simd, core::KernelBackend::kSimd)
    ->Apply(BM_GemmCrossover_args);
BENCHMARK_CAPTURE(BM_GemmSmallForced, scalar, core::KernelBackend::kScalar)
    ->Apply(BM_GemmCrossover_args);
BENCHMARK_CAPTURE(BM_GemmSmallForced, simd, core::KernelBackend::kSimd)
    ->Apply(BM_GemmCrossover_args);

// -- Shared conv kernels on the cnn_async MiniResNet convolutions. ----------

struct ConvOperands {
  core::Conv2dDims d;
  t::Tensor x, w, b, dout, colT, out, dx, dw, db;
};

/// Args {C, H (= W), F, K, stride, pad} at batch 32.
ConvOperands make_conv(const benchmark::State& state) {
  ConvOperands ops;
  const auto c = state.range(0), hw = state.range(1), f = state.range(2), k = state.range(3);
  ops.d = core::conv2d_dims(32, c, hw, hw, f, k, k, state.range(4), state.range(5));
  const core::Conv2dDims& d = ops.d;
  t::Rng rng(31);
  ops.x = rng.normal_tensor({d.n, d.c, d.h, d.w});
  ops.w = rng.normal_tensor({d.f, d.c, d.kh, d.kw});
  ops.b = rng.normal_tensor({d.f});
  ops.dout = rng.normal_tensor({d.n, d.f, d.oh, d.ow});
  ops.colT = t::Tensor(t::Shape{d.patch(), d.pixels()});
  ops.out = t::Tensor(t::Shape{d.n, d.f, d.oh, d.ow});
  ops.dx = t::Tensor(t::Shape{d.n, d.c, d.h, d.w});
  ops.dw = t::Tensor(t::Shape{d.f, d.c, d.kh, d.kw});
  ops.db = t::Tensor(t::Shape{d.f});
  return ops;
}

std::int64_t conv_macs(const core::Conv2dDims& d) { return d.f * d.patch() * d.pixels(); }

void BM_Conv2dForward(benchmark::State& state, core::KernelBackend backend) {
  BackendScope scope(state, backend);
  if (!scope) return;
  auto ops = make_conv(state);
  for (auto _ : state) {
    core::conv2d_forward(ops.x, ops.w, ops.b, ops.d, ops.colT, ops.out);
    benchmark::DoNotOptimize(ops.out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * conv_macs(ops.d));
}

void BM_Conv2dBackward(benchmark::State& state, core::KernelBackend backend) {
  BackendScope scope(state, backend);
  if (!scope) return;
  auto ops = make_conv(state);
  core::conv2d_forward(ops.x, ops.w, ops.b, ops.d, ops.colT, ops.out);
  for (auto _ : state) {
    core::conv2d_backward(ops.dout, ops.colT, ops.w, ops.d, {&ops.dx, &ops.dw, &ops.db});
    benchmark::DoNotOptimize(ops.dx.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * conv_macs(ops.d));
}

void BM_Conv2d_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"c", "hw", "f", "k", "s", "p"})
      ->Args({3, 8, 4, 3, 1, 1})    // stem
      ->Args({4, 8, 4, 3, 1, 1})    // block0 conv1 and conv2 (one shape, run twice a step)
      ->Args({4, 8, 8, 3, 2, 1})    // block1 conv1
      ->Args({8, 4, 8, 3, 1, 1})    // block1 conv2
      ->Args({4, 8, 8, 1, 2, 0})    // block1 projection
      ->Args({8, 4, 16, 3, 2, 1})   // block2 conv1
      ->Args({16, 2, 16, 3, 1, 1})  // block2 conv2
      ->Args({8, 4, 16, 1, 2, 0});  // block2 projection
}
void BM_Conv2dForward_args(benchmark::internal::Benchmark* b) { BM_Conv2d_args(b); }
void BM_Conv2dBackward_args(benchmark::internal::Benchmark* b) { BM_Conv2d_args(b); }

YF_GEMM_BENCH(BM_Conv2dForward);
YF_GEMM_BENCH(BM_Conv2dBackward);

}  // namespace

int main(int argc, char** argv) {
  return yfb::benchmark_main_with_json(argc, argv, "micro_gemm");
}
