// Direct (im2col-free) convolution: the guarantee is bitwise identity
// with the im2col lowering on every kernel tier, at every stride and pad,
// plus sub-tile determinism (thread count never changes output bits). The
// GEMM-level tests compare products over conv-view B operands (raw and
// prepacked A, f32 and int8) against the same GEMM run over a materialized
// im2col matrix; the
// layer-level tests compare Conv2d forwards (f32 plain, prepacked and
// training; int8 with dynamic and static activation scales) against a
// test-local Im2Col + GEMM reference. CMake reruns this binary under
// POE_GEMM_KERNEL=scalar|avx2 and POE_NUM_THREADS=4 so every dispatch tier
// and the sub-tile parallel schedule are all covered.
#include "tensor/conv_direct.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/im2col.h"
#include "util/rng.h"

namespace poe {
namespace {

void FillUniform(std::vector<float>* v, Rng& rng) {
  for (auto& x : *v) x = rng.Uniform(-1.0f, 1.0f);
}

void FillInt8(std::vector<int8_t>* v, Rng& rng) {
  for (auto& x : *v)
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
}

template <typename T>
std::vector<T> PadImage(const std::vector<T>& img, int64_t c, int64_t h,
                        int64_t w, int64_t pad) {
  const int64_t ph = h + 2 * pad;
  const int64_t pw = w + 2 * pad;
  std::vector<T> padded(static_cast<size_t>(c * ph * pw), T(0));
  for (int64_t ch = 0; ch < c; ++ch)
    for (int64_t y = 0; y < h; ++y)
      std::memcpy(padded.data() + (ch * ph + y + pad) * pw + pad,
                  img.data() + (ch * h + y) * w,
                  static_cast<size_t>(w) * sizeof(T));
  return padded;
}

// Direct-conv geometry sweep shared by the f32 and int8 GEMM oracles:
// pointwise (the 1x1 view that is its own B matrix), stride 1 at every
// pad, and strides 2 and 3 — pad 0 (the view aliases the image), sizes
// where h + 2*pad - kernel is not a multiple of the stride, 1x1 stride-2
// shortcuts, and blocks of 16+ columns for the SIMD int8 packers.
struct Geometry {
  int64_t c, h, w, kernel, pad, stride;
};

const Geometry kGeometries[] = {
    {1, 5, 5, 1, 0, 1},    {1, 5, 5, 1, 1, 1},    {3, 7, 7, 2, 0, 1},
    {3, 7, 7, 2, 1, 1},    {3, 8, 8, 3, 0, 1},    {3, 8, 8, 3, 1, 1},
    {1, 5, 7, 3, 2, 1},    {16, 8, 8, 3, 1, 1},   {3, 16, 16, 5, 2, 1},
    {4, 32, 32, 3, 1, 1},  {16, 8, 8, 3, 1, 2},   {3, 9, 9, 3, 1, 2},
    {5, 7, 7, 3, 0, 2},    {2, 11, 10, 3, 0, 3},  {3, 16, 16, 5, 2, 3},
    {4, 8, 8, 1, 0, 2},    {8, 9, 7, 1, 0, 2},    {3, 32, 32, 3, 1, 2},
    {2, 33, 31, 3, 1, 3},  {6, 20, 20, 1, 0, 3},
};

std::string Describe(const Geometry& g) {
  return "c=" + std::to_string(g.c) + " h=" + std::to_string(g.h) +
         " w=" + std::to_string(g.w) + " k=" + std::to_string(g.kernel) +
         " pad=" + std::to_string(g.pad) +
         " stride=" + std::to_string(g.stride);
}

template <typename T>
ConvImageViewT<T> MakeView(const Geometry& g, const std::vector<T>& img,
                           const std::vector<T>& padded) {
  ConvImageViewT<T> view;
  view.padded = g.pad == 0 ? img.data() : padded.data();
  view.channels = g.c;
  view.height = g.h;
  view.width = g.w;
  view.kernel = g.kernel;
  view.pad = g.pad;
  view.stride = g.stride;
  return view;
}

TEST(ConvDirectGemmTest, F32BitwiseMatchesIm2Col) {
  for (const auto& g : kGeometries) {
    Rng rng(g.c * 131 + g.h * 17 + g.kernel * 5 + g.pad + g.stride * 3);
    const int64_t m = 7;
    const int64_t depth = g.c * g.kernel * g.kernel;
    const int64_t cols_n = ConvOutSize(g.h, g.kernel, g.pad, g.stride) *
                           ConvOutSize(g.w, g.kernel, g.pad, g.stride);
    std::vector<float> img(static_cast<size_t>(g.c * g.h * g.w));
    std::vector<float> weight(static_cast<size_t>(m * depth));
    std::vector<float> bias(static_cast<size_t>(m));
    FillUniform(&img, rng);
    FillUniform(&weight, rng);
    FillUniform(&bias, rng);

    GemmEpilogue ep;
    ep.row_bias = bias.data();
    ep.relu = true;

    std::vector<float> cols(static_cast<size_t>(depth * cols_n));
    Im2Col(img.data(), g.c, g.h, g.w, g.kernel, g.kernel, g.pad, g.stride,
           cols.data());
    std::vector<float> c_ref(static_cast<size_t>(m * cols_n));
    const GemmA raw = GemmA::Raw(m, depth, weight.data());
    Gemm(raw, GemmB::Raw(depth, cols_n, cols.data()), c_ref.data(), ep,
         /*parallel=*/false);

    const std::vector<float> padded = PadImage(img, g.c, g.h, g.w, g.pad);
    const ConvImageView view = MakeView(g, img, padded);
    ASSERT_EQ(view.depth(), depth);
    ASSERT_EQ(view.cols(), cols_n);

    // The prepacked weight operand carries the same bitwise guarantee.
    PackedAWeights packed = PackedAWeights::Pack(m, depth, weight.data());
    for (bool parallel : {false, true}) {
      std::vector<float> c_direct(static_cast<size_t>(m * cols_n), -7.0f);
      Gemm(raw, GemmB::Conv(view), c_direct.data(), ep, parallel);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_direct.data(),
                               c_ref.size() * sizeof(float)))
          << Describe(g) << " parallel=" << parallel;
      std::vector<float> c_packed(static_cast<size_t>(m * cols_n), -7.0f);
      Gemm(GemmA::Packed(packed), GemmB::Conv(view), c_packed.data(), ep,
           parallel);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_packed.data(),
                               c_ref.size() * sizeof(float)))
          << Describe(g) << " prepacked parallel=" << parallel;
    }
  }
}

TEST(ConvDirectGemmTest, Int8BitwiseMatchesIm2Col) {
  for (const auto& g : kGeometries) {
    Rng rng(g.c * 37 + g.h * 11 + g.kernel * 3 + g.pad + g.stride * 7 + 1);
    const int64_t m = 9;
    const int64_t depth = g.c * g.kernel * g.kernel;
    const int64_t cols_n = ConvOutSize(g.h, g.kernel, g.pad, g.stride) *
                           ConvOutSize(g.w, g.kernel, g.pad, g.stride);
    std::vector<int8_t> img(static_cast<size_t>(g.c * g.h * g.w));
    std::vector<int8_t> weight(static_cast<size_t>(m * depth));
    std::vector<float> wscale(static_cast<size_t>(m));
    FillInt8(&img, rng);
    FillInt8(&weight, rng);
    FillUniform(&wscale, rng);

    GemmS8Epilogue ep;
    ep.scale = 0.03125f;
    ep.row_scale = wscale.data();
    ep.relu = true;

    std::vector<int8_t> cols(static_cast<size_t>(depth * cols_n));
    Im2Col(img.data(), g.c, g.h, g.w, g.kernel, g.kernel, g.pad, g.stride,
           cols.data());
    std::vector<float> c_ref(static_cast<size_t>(m * cols_n));
    const GemmS8A raw = GemmS8A::Raw(m, depth, weight.data());
    GemmS8(raw, GemmS8B::Raw(depth, cols_n, cols.data()), c_ref.data(), ep,
           /*parallel=*/false);

    const std::vector<int8_t> padded = PadImage(img, g.c, g.h, g.w, g.pad);
    const ConvImageViewS8 view = MakeView(g, img, padded);
    ASSERT_EQ(view.cols(), cols_n);

    PackedS8Weights packed = PackedS8Weights::Pack(m, depth, weight.data());
    for (bool parallel : {false, true}) {
      std::vector<float> c_direct(static_cast<size_t>(m * cols_n), -7.0f);
      GemmS8(raw, GemmS8B::Conv(view), c_direct.data(), ep, parallel);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_direct.data(),
                               c_ref.size() * sizeof(float)))
          << Describe(g) << " parallel=" << parallel;
      std::vector<float> c_packed(static_cast<size_t>(m * cols_n), -7.0f);
      GemmS8(GemmS8A::Packed(packed), GemmS8B::Conv(view), c_packed.data(),
             ep, parallel);
      ASSERT_EQ(0, std::memcmp(c_ref.data(), c_packed.data(),
                               c_ref.size() * sizeof(float)))
          << Describe(g) << " prepacked parallel=" << parallel;
    }
  }
}

// Sub-tile parallelism inside a single macro tile must not change output
// bits: every register tile is computed by exactly one task with the same
// packed panels and accumulation order (ParallelFor is a barrier).
TEST(ConvDirectGemmTest, SubTileParallelIsDeterministicF32) {
  Rng rng(91);
  // m=64 rows, ~900 columns: one macro tile, many NR-column micro panels
  // (the shape that exercises the sub-tile ParallelFor schedule).
  const int64_t m = 64, k = 64 * 3 * 3, n = 30 * 30;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  std::vector<float> c_seq(static_cast<size_t>(m * n));
  std::vector<float> c_par(static_cast<size_t>(m * n));
  const GemmA ad = GemmA::Raw(m, k, a.data());
  const GemmB bd = GemmB::Raw(k, n, b.data());
  Gemm(ad, bd, c_seq.data(), GemmEpilogue{}, /*parallel=*/false);
  Gemm(ad, bd, c_par.data(), GemmEpilogue{}, /*parallel=*/true);
  ASSERT_EQ(0,
            std::memcmp(c_seq.data(), c_par.data(), c_seq.size() * sizeof(float)));
}

TEST(ConvDirectGemmTest, SubTileParallelIsDeterministicInt8) {
  Rng rng(92);
  const int64_t m = 64, k = 64 * 3 * 3, n = 30 * 30;
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<int8_t> b(static_cast<size_t>(k * n));
  FillInt8(&a, rng);
  FillInt8(&b, rng);
  GemmS8Epilogue ep;
  ep.scale = 0.0625f;
  std::vector<float> c_seq(static_cast<size_t>(m * n));
  std::vector<float> c_par(static_cast<size_t>(m * n));
  const GemmS8A ad = GemmS8A::Raw(m, k, a.data());
  const GemmS8B bd = GemmS8B::Raw(k, n, b.data());
  GemmS8(ad, bd, c_seq.data(), ep, /*parallel=*/false);
  GemmS8(ad, bd, c_par.data(), ep, /*parallel=*/true);
  ASSERT_EQ(0,
            std::memcmp(c_seq.data(), c_par.data(), c_seq.size() * sizeof(float)));
}

// Several row and column tiles: the sub-tile schedule of every (column
// stripe, row tile) must agree with sequential bit for bit too.
TEST(ConvDirectGemmTest, MultiTileParallelIsDeterministic) {
  Rng rng(93);
  const int64_t m = 300, k = 60, n = 1100;
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  std::vector<float> c_seq(static_cast<size_t>(m * n));
  std::vector<float> c_par(static_cast<size_t>(m * n));
  const GemmA ad = GemmA::Raw(m, k, a.data());
  const GemmB bd = GemmB::Raw(k, n, b.data());
  Gemm(ad, bd, c_seq.data(), GemmEpilogue{}, /*parallel=*/false);
  Gemm(ad, bd, c_par.data(), GemmEpilogue{}, /*parallel=*/true);
  ASSERT_EQ(0,
            std::memcmp(c_seq.data(), c_par.data(), c_seq.size() * sizeof(float)));
}

// Test-local reference lowering: per item, materialize the im2col matrix
// and run one sequential GEMM over it (the lowering every Conv2d forward
// is bitwise identical to).
Tensor Im2ColForwardF32(Conv2d& conv, const Tensor& x, bool relu) {
  const int64_t batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t k = conv.kernel(), pad = conv.pad(), stride = conv.stride();
  const int64_t out_h = ConvOutSize(h, k, pad, stride);
  const int64_t out_w = ConvOutSize(w, k, pad, stride);
  const int64_t ckk = c * k * k, ohw = out_h * out_w;
  const int64_t out_c = conv.out_channels();
  Tensor y({batch, out_c, out_h, out_w});
  std::vector<float> cols(static_cast<size_t>(ckk * ohw));
  GemmEpilogue ep;
  ep.row_bias = conv.has_bias() ? conv.bias().value.data() : nullptr;
  ep.relu = relu;
  for (int64_t b = 0; b < batch; ++b) {
    Im2Col(x.data() + b * c * h * w, c, h, w, k, k, pad, stride,
           cols.data());
    Gemm(GemmA::Raw(out_c, ckk, conv.weight().value.data()),
         GemmB::Raw(ckk, ohw, cols.data()), y.data() + b * out_c * ohw, ep,
         /*parallel=*/false);
  }
  return y;
}

// The int8 reference quantizes each item with the layer's activation
// scale (static, or the dynamic max-abs of the whole input), unfolds the
// quantized image, and multiplies the exported row-major int8 weights.
Tensor Im2ColForwardInt8(Conv2d& conv, const Tensor& x, bool relu) {
  const Int8WeightState state = conv.ExportInt8State().ValueOrDie();
  const int64_t batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t k = conv.kernel(), pad = conv.pad(), stride = conv.stride();
  const int64_t out_h = ConvOutSize(h, k, pad, stride);
  const int64_t out_w = ConvOutSize(w, k, pad, stride);
  const int64_t ckk = c * k * k, ohw = out_h * out_w, chw = c * h * w;
  const int64_t out_c = conv.out_channels();
  const float act_scale = state.act_scale > 0.0f
                              ? state.act_scale
                              : SymmetricScaleS8(x.data(), x.numel());
  Tensor y({batch, out_c, out_h, out_w});
  std::vector<int8_t> q(static_cast<size_t>(chw));
  std::vector<int8_t> cols(static_cast<size_t>(ckk * ohw));
  GemmS8Epilogue ep;
  ep.scale = act_scale;
  ep.row_scale = state.scales.data();
  ep.row_bias = conv.has_bias() ? conv.bias().value.data() : nullptr;
  ep.relu = relu;
  for (int64_t b = 0; b < batch; ++b) {
    QuantizeBufferS8(x.data() + b * chw, chw, 1.0f / act_scale, q.data());
    Im2Col(q.data(), c, h, w, k, k, pad, stride, cols.data());
    GemmS8(GemmS8A::Raw(out_c, ckk, state.values.data()),
           GemmS8B::Raw(ckk, ohw, cols.data()), y.data() + b * out_c * ohw,
           ep, /*parallel=*/false);
  }
  return y;
}

void ExpectSameBits(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)))
      << what;
}

// Layer geometries: every kernel/stride/pad combination at a size where
// the stride does not divide the padded extent, plus WRN-transition
// shapes large enough to fan out (batch 1 takes the GEMM-parallel
// schedule, batch 8 the batch-parallel one at POE_NUM_THREADS=4).
struct LayerCase {
  int64_t in_c, out_c, kernel, stride, pad, batch, hw;
};

std::vector<LayerCase> LayerCases() {
  std::vector<LayerCase> cases;
  for (int64_t kernel : {1, 3, 5})
    for (int64_t stride : {1, 2, 3})
      for (int64_t pad : {int64_t{0}, kernel / 2})
        for (int64_t batch : {1, 3})
          cases.push_back({3, 10, kernel, stride, pad, batch, 9});
  for (int64_t batch : {1, 8}) {
    cases.push_back({16, 32, 3, 2, 1, batch, 32});
    cases.push_back({16, 32, 1, 2, 0, batch, 32});
  }
  return cases;
}

std::string Describe(const LayerCase& lc) {
  return "in_c=" + std::to_string(lc.in_c) + " k=" +
         std::to_string(lc.kernel) + " stride=" + std::to_string(lc.stride) +
         " pad=" + std::to_string(lc.pad) +
         " batch=" + std::to_string(lc.batch) +
         " hw=" + std::to_string(lc.hw);
}

TEST(ConvDirectLayerTest, ForwardF32MatchesIm2ColReference) {
  for (const LayerCase& lc : LayerCases()) {
    Rng rng(55), rngx(56);
    Conv2d conv(lc.in_c, lc.out_c, lc.kernel, lc.stride, lc.pad, rng,
                /*bias=*/true);
    Tensor x = Tensor::Randn({lc.batch, lc.in_c, lc.hw, lc.hw}, rngx);
    const Tensor ref = Im2ColForwardF32(conv, x, /*relu=*/false);
    const Tensor ref_relu = Im2ColForwardF32(conv, x, /*relu=*/true);
    ExpectSameBits(conv.Forward(x, /*training=*/true), ref,
                   "training " + Describe(lc));
    ExpectSameBits(conv.Forward(x, /*training=*/false), ref,
                   "plain " + Describe(lc));
    ExpectSameBits(conv.ForwardFusedRelu(x), ref_relu,
                   "fused relu " + Describe(lc));
    conv.Prepack(ServingPrecision::kFloat32);
    ExpectSameBits(conv.Forward(x, /*training=*/false), ref,
                   "prepacked " + Describe(lc));
    ExpectSameBits(conv.ForwardFusedRelu(x), ref_relu,
                   "prepacked fused relu " + Describe(lc));
  }
}

TEST(ConvDirectLayerTest, ForwardInt8MatchesIm2ColReference) {
  for (const LayerCase& lc : LayerCases()) {
    for (bool calibrated : {false, true}) {
      Rng rng(59), rngx(60);
      Conv2d conv(lc.in_c, lc.out_c, lc.kernel, lc.stride, lc.pad, rng,
                  /*bias=*/lc.batch != 1);
      Tensor x = Tensor::Randn({lc.batch, lc.in_c, lc.hw, lc.hw}, rngx);
      if (calibrated) {
        conv.BeginActivationCalibration();
        conv.Forward(x, /*training=*/false);
        conv.FinishActivationCalibration();
        ASSERT_GT(conv.static_act_scale(), 0.0f);
      }
      conv.PrepareInt8Serving();
      const std::string what =
          Describe(lc) + " calibrated=" + std::to_string(calibrated);
      ExpectSameBits(conv.Forward(x, /*training=*/false),
                     Im2ColForwardInt8(conv, x, /*relu=*/false), what);
      ExpectSameBits(conv.ForwardFusedRelu(x),
                     Im2ColForwardInt8(conv, x, /*relu=*/true),
                     "fused relu " + what);
    }
  }
}

// The batch-parallel schedule (ParallelFor over items, sequential GEMMs)
// and the GEMM-parallel schedule agree bitwise on the direct path; batch
// size only changes which one Conv2d picks, never the bits.
TEST(ConvDirectLayerTest, BatchSizeDoesNotChangeBits) {
  Rng rng1(61), rng2(61), rngx(62);
  Conv2d conv_a(4, 16, 3, 1, 1, rng1, /*bias=*/true);
  Conv2d conv_b(4, 16, 3, 1, 1, rng2, /*bias=*/true);
  Tensor big = Tensor::Randn({8, 4, 10, 10}, rngx);
  Tensor y_all = conv_a.Forward(big, /*training=*/false);
  const int64_t item = 16 * 10 * 10;
  for (int64_t b = 0; b < 8; ++b) {
    Tensor x({1, 4, 10, 10});
    std::memcpy(x.data(), big.data() + b * 4 * 10 * 10,
                sizeof(float) * 4 * 10 * 10);
    Tensor y = conv_b.Forward(x, /*training=*/false);
    ASSERT_EQ(0, std::memcmp(y.data(), y_all.data() + b * item,
                             sizeof(float) * item))
        << "item " << b;
  }
}

}  // namespace
}  // namespace poe
