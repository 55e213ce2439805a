// Microbenchmarks of the tensor/NN substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include <string>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/arena.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "util/parallel_for.h"
#include "util/rng.h"

namespace poe {
namespace {

// Every row is timed on the wall clock: google-benchmark's default CPU
// time counts only the main thread, so a pool-parallel kernel's GF/s came
// out inflated by up to the thread count. Each row runs kRepetitions times
// and reports aggregates only; read the `_median` rows.
constexpr int kRepetitions = 5;

void WallClock(benchmark::internal::Benchmark* b) {
  b->UseRealTime()->Repetitions(kRepetitions)->ReportAggregatesOnly(true);
}

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    Gemm(GemmA::Raw(n, n, a.data()), GemmB::Raw(n, n, b.data()), c.data(),
         GemmEpilogue{}, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_Gemm)
    ->Apply(WallClock)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// Quantized GEMM with the serving-shaped epilogue (per-row dequant scales
// + bias + ReLU fused into the int32 -> f32 store). items_processed uses
// the same 2*n^3 op count as BM_Gemm, so the reported rate is effective
// FLOP-equivalent throughput — directly comparable against BM_Gemm rows.
void BM_GemmS8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<int8_t> a(n * n), b(n * n);
  for (auto& v : a)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  for (auto& v : b)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  std::vector<float> scales(n), bias(n), c(n * n);
  for (auto& v : scales) v = rng.Uniform(0.001f, 0.01f);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
  GemmS8Epilogue ep;
  ep.scale = 0.02f;
  ep.row_scale = scales.data();
  ep.row_bias = bias.data();
  ep.relu = true;
  for (auto _ : state) {
    GemmS8(GemmS8A::Raw(n, n, a.data()), GemmS8B::Raw(n, n, b.data()),
           c.data(), ep, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_GemmS8)
    ->Apply(WallClock)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// Same product with the weights pre-packed once (the conv serving path:
// packing cost amortized across every query).
void BM_GemmS8Packed(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<int8_t> a(n * n), b(n * n);
  for (auto& v : a)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  for (auto& v : b)
    v = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
  std::vector<float> scales(n, 0.01f), c(n * n);
  PackedS8Weights packed = PackedS8Weights::Pack(n, n, a.data());
  GemmS8Epilogue ep;
  ep.scale = 0.02f;
  ep.row_scale = scales.data();
  for (auto _ : state) {
    GemmS8(GemmS8A::Packed(packed), GemmS8B::Raw(n, n, b.data()), c.data(),
           ep, /*parallel=*/true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_GemmS8Packed)->Apply(WallClock)->Arg(256)->Arg(512)->Arg(1024);

void BM_Conv2dForward(benchmark::State& state) {
  const int64_t channels = state.range(0);
  const int64_t batch = 32, hw = 8, kernel = 3;
  Rng rng(2);
  Conv2d conv(channels, channels, kernel, 1, 1, rng);
  Tensor x = Tensor::Randn({batch, channels, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * channels * channels *
                          kernel * kernel * hw * hw * 2);
}
BENCHMARK(BM_Conv2dForward)->Apply(WallClock)->Arg(8)->Arg(32)->Arg(64);

// WRN-shaped inference convolutions (CIFAR-style 32x32 inputs, batch 8):
// args are {in_channels, out_channels, spatial, stride, kernel}. The cases
// mirror the oracle WRN-40-(4,4) trunk: the stem, one 3x3 from each
// resolution group, the strided group transitions, and a 1x1 projection
// (a view the GEMM packs as a plain matrix).
void BM_ConvWrn(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
}
BENCHMARK(BM_ConvWrn)->Apply(WallClock)
    ->Args({3, 16, 32, 1, 3})     // stem
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({64, 128, 32, 2, 3})   // conv3 transition (32x32 in -> 16x16)
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({128, 256, 16, 2, 3})  // conv4 transition (16x16 in -> 8x8)
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1});  // 1x1 pointwise

// The same WRN-shaped convolutions served int8: per-channel-quantized
// pre-packed weights, dynamic activation quantization, fused dequant
// epilogue. Effective-FLOP rates compare row-for-row against BM_ConvWrn.
void BM_ConvWrnInt8(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  conv.PrepareInt8Serving();
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_ConvWrnInt8)->Apply(WallClock)
    ->Args({3, 16, 32, 1, 3})     // stem
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({64, 128, 32, 2, 3})   // conv3 transition (32x32 in -> 16x16)
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({128, 256, 16, 2, 3})  // conv4 transition (16x16 in -> 8x8)
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1});  // 1x1 pointwise

// The im2col lowering Conv2d forwards used before the image view covered
// every stride, kept as the baseline the direct rows are gated against
// (tools/bench_gate.py, direct_vs_im2col): `run_range(begin, end,
// gemm_parallel)` unfolds and multiplies items [begin, end), and the items
// spread over the pool the way Conv2d's schedule spreads them, with the
// GEMM task count of the dtype (`parallel_tiles`).
template <typename RunRange>
void RunIm2ColSchedule(int64_t batch, int64_t out_c, int64_t ohw,
                       int64_t ckk,
                       int64_t (*parallel_tiles)(int64_t, int64_t, int64_t),
                       const RunRange& run_range) {
  const bool fan_out = ShouldFanOut(batch * out_c * ohw * ckk);
  const bool gemm_parallel = fan_out && batch < NumThreads() &&
                             parallel_tiles(out_c, ohw, ckk) > batch;
  if (fan_out && !gemm_parallel) {
    ParallelFor(
        batch, [&](int64_t b0, int64_t b1) { run_range(b0, b1, false); },
        /*min_chunk=*/1);
  } else {
    run_range(0, batch, gemm_parallel);
  }
}

// Int8 conv with a static calibrated activation scale, lowered through a
// materialized im2col matrix: quantize each image once, unfold the bytes,
// then multiply the pre-packed int8 weights. No max-abs pass (the scale is
// static), so rates compare row-for-row against BM_ConvWrnInt8 and form
// the baseline of BM_ConvWrnDirectInt8.
void BM_ConvWrnInt8Calibrated(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  conv.BeginActivationCalibration();
  conv.Forward(x, false);
  conv.FinishActivationCalibration();
  conv.PrepareInt8Serving();
  const Int8WeightState weights = conv.ExportInt8State().ValueOrDie();
  const PackedS8Weights packed =
      PackedS8Weights::Pack(weights.rows, weights.cols, weights.values.data());
  GemmS8Epilogue ep;
  ep.scale = weights.act_scale;
  ep.row_scale = weights.scales.data();
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  const int64_t ohw = out_hw * out_hw;
  const int64_t ckk = weights.cols;
  const int64_t chw = in_c * hw * hw;
  for (auto _ : state) {
    Tensor y({batch, out_c, out_hw, out_hw});
    RunIm2ColSchedule(batch, out_c, ohw, ckk, GemmS8ParallelTiles,
                      [&](int64_t begin, int64_t end, bool gemm_parallel) {
      ScratchScope scope;
      int8_t* q_img = AllocS8(scope, chw);
      int8_t* cols = AllocS8(scope, ckk * ohw);
      for (int64_t b = begin; b < end; ++b) {
        QuantizeBufferS8(x.data() + b * chw, chw, 1.0f / weights.act_scale,
                         q_img);
        Im2Col(q_img, in_c, hw, hw, kernel, kernel, pad, stride, cols);
        GemmS8(GemmS8A::Packed(packed), GemmS8B::Raw(ckk, ohw, cols),
               y.data() + b * out_c * ohw, ep, gemm_parallel);
      }
    });
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * out_c * ohw * ckk *
                          2);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_ConvWrnInt8Calibrated)->Apply(WallClock)
    ->Args({3, 16, 32, 1, 3})     // stem (activation-pass heavy)
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({64, 128, 32, 2, 3})   // conv3 transition
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({128, 256, 16, 2, 3})  // conv4 transition
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1});  // 1x1 pointwise

// F32 conv with prepacked op(A) weight panels, lowered through a
// materialized im2col matrix: the baseline of BM_ConvWrnDirect (same rows
// and bitwise-identical outputs; only the lowering differs).
void BM_ConvWrnPrepacked(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  const int64_t ohw = out_hw * out_hw;
  const int64_t ckk = in_c * kernel * kernel;
  const PackedAWeights packed =
      PackedAWeights::Pack(out_c, ckk, conv.weight().value.data());
  for (auto _ : state) {
    Tensor y({batch, out_c, out_hw, out_hw});
    RunIm2ColSchedule(batch, out_c, ohw, ckk, GemmParallelTiles,
                      [&](int64_t begin, int64_t end, bool gemm_parallel) {
      ScratchScope scope;
      float* cols = scope.Alloc(ckk * ohw);
      for (int64_t b = begin; b < end; ++b) {
        Im2Col(x.data() + b * in_c * hw * hw, in_c, hw, hw, kernel, kernel,
               pad, stride, cols);
        Gemm(GemmA::Packed(packed), GemmB::Raw(ckk, ohw, cols),
             y.data() + b * out_c * ohw, GemmEpilogue{}, gemm_parallel);
      }
    });
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * out_c * ohw * ckk *
                          2);
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_ConvWrnPrepacked)->Apply(WallClock)
    ->Args({3, 16, 32, 1, 3})     // stem
    ->Args({64, 64, 32, 1, 3})    // conv2 group body
    ->Args({64, 128, 32, 2, 3})   // conv3 transition
    ->Args({128, 128, 16, 1, 3})  // conv3 group body
    ->Args({128, 256, 16, 2, 3})  // conv4 transition
    ->Args({256, 256, 8, 1, 3})   // conv4 group body
    ->Args({256, 256, 8, 1, 1});  // 1x1 pointwise

// Im2col-free convolution as Conv2d runs it: the GEMM's B pack gathers
// the virtual im2col matrix from the zero-padded image, so no im2col
// matrix is materialized. Same prepacked weights and shapes as
// BM_ConvWrnPrepacked; outputs are bitwise identical (test-pinned), only
// the lowering differs.
void BM_ConvWrnDirect(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  conv.Prepack(ServingPrecision::kFloat32);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_ConvWrnDirect)->Apply(WallClock)
    ->Args({3, 16, 32, 1, 3})      // stem
    ->Args({64, 64, 32, 1, 3})     // conv2 group body
    ->Args({64, 128, 32, 2, 3})    // conv3 transition
    ->Args({128, 128, 16, 1, 3})   // conv3 group body
    ->Args({128, 256, 16, 2, 3})   // conv4 transition
    ->Args({256, 256, 8, 1, 3});   // conv4 group body

// Int8 direct convolution with calibrated activations, as Conv2d runs it:
// each input byte is quantized exactly once into the padded image, then
// the conv-aware B pack gathers it — no im2col matrix, no
// re-quantization. Baseline: BM_ConvWrnInt8Calibrated (same rows,
// bitwise-identical outputs).
void BM_ConvWrnDirectInt8(benchmark::State& state) {
  const int64_t in_c = state.range(0);
  const int64_t out_c = state.range(1);
  const int64_t hw = state.range(2);
  const int64_t stride = state.range(3);
  const int64_t kernel = state.range(4);
  const int64_t pad = kernel / 2;
  const int64_t batch = 8;
  Rng rng(7);
  Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
  Tensor x = Tensor::Randn({batch, in_c, hw, hw}, rng);
  conv.BeginActivationCalibration();
  conv.Forward(x, false);
  conv.FinishActivationCalibration();
  conv.PrepareInt8Serving();
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t out_hw = (hw + 2 * pad - kernel) / stride + 1;
  state.SetItemsProcessed(state.iterations() * batch * out_c * out_hw *
                          out_hw * in_c * kernel * kernel * 2);
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_ConvWrnDirectInt8)->Apply(WallClock)
    ->Args({3, 16, 32, 1, 3})      // stem
    ->Args({64, 64, 32, 1, 3})     // conv2 group body
    ->Args({64, 128, 32, 2, 3})    // conv3 transition
    ->Args({128, 128, 16, 1, 3})   // conv3 group body
    ->Args({128, 256, 16, 2, 3})   // conv4 transition
    ->Args({256, 256, 8, 1, 3});   // conv4 group body

// The fan-out threshold sweep: WRN 3x3 convs (channels -> channels,
// stride 1) at batch 1 and 8, 4x4, 8x8 and 32x32, from 9k to 302M
// multiply-accumulates, so rows fall on both sides of kMinFanOutWork
// (2^20). Args are {batch, channels, spatial}; the label gives the MACs.
// Compare a run at the default thread count with one at
// POE_NUM_THREADS=1 (everything inline): docs/PERF.md, "When
// ParallelFor fans out".
template <bool kInt8>
void BM_ConvFanOut(benchmark::State& state) {
  const int64_t batch = state.range(0);
  const int64_t channels = state.range(1);
  const int64_t hw = state.range(2);
  Rng rng(9);
  Conv2d conv(channels, channels, /*kernel=*/3, /*stride=*/1, /*pad=*/1,
              rng);
  Tensor x = Tensor::Randn({batch, channels, hw, hw}, rng);
  if (kInt8) {
    conv.BeginActivationCalibration();
    conv.Forward(x, false);
    conv.FinishActivationCalibration();
    conv.PrepareInt8Serving();
  } else {
    conv.Prepack(ServingPrecision::kFloat32);
  }
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  const int64_t macs = batch * channels * hw * hw * channels * 9;
  state.SetItemsProcessed(state.iterations() * macs * 2);
  state.SetLabel("macs=" + std::to_string(macs));
}

void FanOutShapes(benchmark::internal::Benchmark* b) {
  WallClock(b);
  for (int64_t hw : {4, 8, 32}) {
    for (int64_t batch : {1, 8}) {
      for (int64_t channels : {8, 16, 32, 64}) {
        b->Args({batch, channels, hw});
      }
    }
  }
}
BENCHMARK_TEMPLATE(BM_ConvFanOut, false)->Apply(FanOutShapes);
BENCHMARK_TEMPLATE(BM_ConvFanOut, true)->Apply(FanOutShapes);

void BM_Conv2dBackward(benchmark::State& state) {
  const int64_t channels = state.range(0);
  Rng rng(3);
  Conv2d conv(channels, channels, 3, 1, 1, rng);
  Tensor x = Tensor::Randn({32, channels, 8, 8}, rng);
  Tensor y = conv.Forward(x, true);
  for (auto _ : state) {
    conv.ZeroGrad();
    Tensor gx = conv.Backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2dBackward)->Apply(WallClock)->Arg(8)->Arg(32);

void BM_BatchNormTraining(benchmark::State& state) {
  Rng rng(4);
  BatchNorm2d bn(32);
  Tensor x = Tensor::Randn({64, 32, 8, 8}, rng);
  for (auto _ : state) {
    Tensor y = bn.Forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BatchNormTraining)->Apply(WallClock);

void BM_Softmax(benchmark::State& state) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({256, 100}, rng);
  for (auto _ : state) {
    Tensor p = Softmax2d(logits);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_Softmax)->Apply(WallClock);

void BM_LinearForward(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  Tensor x = Tensor::Randn({256, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LinearForward)->Apply(WallClock);

// Pack-once f32 serving: the persistent op(B) = W^T panels delete the
// per-call transposed PackB from every forward. Compare against
// BM_LinearForward (identical geometry and outputs, bitwise).
void BM_LinearForwardPrepacked(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  lin.Prepack(ServingPrecision::kFloat32);
  Tensor x = Tensor::Randn({256, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(GemmKernelName());
}
BENCHMARK(BM_LinearForwardPrepacked)->Apply(WallClock);

// Per-call-pack int8 baseline: every forward re-packs W^T into the tiled
// int8 layout AND runs a max-abs pass for the dynamic activation scale —
// the two costs the ROADMAP flagged as eating the int8 win here.
void BM_LinearForwardInt8(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  lin.PrepareInt8Serving();
  Tensor x = Tensor::Randn({256, 512}, rng);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_LinearForwardInt8)->Apply(WallClock);

// The pack-once serving configuration: persistent int8 op(B) panels plus
// a static calibrated activation scale. Identical arithmetic per element;
// only the per-call pack and the max-abs pass are gone.
void BM_LinearForwardInt8Prepacked(benchmark::State& state) {
  Rng rng(6);
  Linear lin(512, 100, rng);
  Tensor x = Tensor::Randn({256, 512}, rng);
  lin.BeginActivationCalibration();
  lin.Forward(x, false);
  lin.FinishActivationCalibration();
  lin.PrepareInt8Serving();
  lin.Prepack(ServingPrecision::kInt8);
  for (auto _ : state) {
    Tensor y = lin.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(GemmS8KernelName());
}
BENCHMARK(BM_LinearForwardInt8Prepacked)->Apply(WallClock);

}  // namespace
}  // namespace poe

BENCHMARK_MAIN();
