// Pack-once serving: persistent prepacked weights must be bitwise
// indistinguishable from the per-call packing paths, at the GEMM level
// and through the Conv2d/Linear forwards (f32 and int8). The CMake
// forced-kernel reruns (POE_GEMM_KERNEL=scalar|avx2) cover every kernel
// tier; the plain run covers whatever the host dispatches (avx512/vnni
// where available).
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "util/rng.h"

namespace poe {
namespace {

void FillInt8(std::vector<int8_t>* v, Rng& rng) {
  for (auto& x : *v)
    x = static_cast<int8_t>(static_cast<int64_t>(rng.NextInt(255)) - 127);
}

// Shapes cross every boundary the persistent layouts index: MC = 240 row
// tiles, NC = 1024 column tiles, KC = 320 k-blocks, plus panel-edge
// remainders in every dimension.
struct Shape {
  int64_t m, n, k;
};
const Shape kShapes[] = {{1, 1, 1},     {3, 17, 5},    {63, 33, 130},
                         {241, 65, 321}, {37, 1025, 11}, {13, 1040, 650},
                         {250, 70, 320}};

TEST(GemmPackedBitwiseTest, PackedAMatchesOnTheFly) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 131 + s.n * 17 + s.k);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), bias(s.m);
    for (auto& v : a) v = rng.Uniform(-1.0f, 1.0f);
    for (auto& v : b) v = rng.Uniform(-1.0f, 1.0f);
    for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
    GemmEpilogue ep;
    ep.row_bias = bias.data();
    ep.relu = true;
    PackedAWeights packed = PackedAWeights::Pack(s.m, s.k, a.data());
    EXPECT_EQ(packed.rows(), s.m);
    EXPECT_EQ(packed.depth(), s.k);
    EXPECT_GT(packed.nbytes(), 0);
    // B as a matrix and as a 1x1 conv view (k channels of a 1 x n image),
    // which the GEMM packs as the plain k x n matrix it is.
    ConvImageView view;
    view.padded = b.data();
    view.channels = s.k;
    view.height = 1;
    view.width = s.n;
    view.kernel = 1;
    const GemmB bd = GemmB::Raw(s.k, s.n, b.data());
    for (bool accumulate : {false, true}) {
      ep.accumulate = accumulate;
      for (bool parallel : {false, true}) {
        std::vector<float> c1(s.m * s.n, 0.5f), c2 = c1, c3 = c1;
        Gemm(GemmA::Raw(s.m, s.k, a.data()), bd, c1.data(), ep, parallel);
        Gemm(GemmA::Packed(packed), bd, c2.data(), ep, parallel);
        Gemm(GemmA::Packed(packed), GemmB::Conv(view), c3.data(), ep,
             parallel);
        ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                                 c1.size() * sizeof(float)))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " accumulate=" << accumulate << " parallel=" << parallel;
        ASSERT_EQ(0, std::memcmp(c1.data(), c3.data(),
                                 c1.size() * sizeof(float)))
            << "1x1 view m=" << s.m << " n=" << s.n << " k=" << s.k
            << " accumulate=" << accumulate << " parallel=" << parallel;
      }
    }
  }
}

TEST(GemmPackedBitwiseTest, PackedBMatchesOnTheFlyBothTransposes) {
  for (const Shape& s : kShapes) {
    for (bool trans_b : {false, true}) {
      Rng rng(s.m * 7 + s.n * 311 + s.k + trans_b);
      std::vector<float> a(s.m * s.k), b(s.k * s.n), bias(s.n);
      for (auto& v : a) v = rng.Uniform(-1.0f, 1.0f);
      for (auto& v : b) v = rng.Uniform(-1.0f, 1.0f);
      for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
      GemmEpilogue ep;
      ep.col_bias = bias.data();
      PackedBWeights packed =
          PackedBWeights::Pack(trans_b, s.k, s.n, b.data());
      EXPECT_EQ(packed.depth(), s.k);
      EXPECT_EQ(packed.cols(), s.n);
      for (bool parallel : {false, true}) {
        std::vector<float> c1(s.m * s.n, -1.0f), c2(s.m * s.n, -1.0f);
        const GemmA ad = GemmA::Raw(s.m, s.k, a.data());
        Gemm(ad, GemmB::Raw(s.k, s.n, b.data(), trans_b), c1.data(), ep,
             parallel);
        Gemm(ad, GemmB::Packed(packed), c2.data(), ep, parallel);
        ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                                 c1.size() * sizeof(float)))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " tb=" << trans_b << " parallel=" << parallel;
      }
    }
  }
}

TEST(GemmS8PackedBBitwiseTest, MatchesOnTheFlyBothTransposes) {
  for (const Shape& s : kShapes) {
    for (bool trans_b : {false, true}) {
      Rng rng(s.m * 19 + s.n * 5 + s.k + trans_b);
      std::vector<int8_t> a(s.m * s.k), b(s.k * s.n);
      FillInt8(&a, rng);
      FillInt8(&b, rng);
      std::vector<float> col_scale(s.n), col_bias(s.n);
      for (auto& v : col_scale) v = rng.Uniform(0.01f, 1.0f);
      for (auto& v : col_bias) v = rng.Uniform(-1.0f, 1.0f);
      GemmS8Epilogue ep;
      ep.scale = 0.031f;
      ep.col_scale = col_scale.data();
      ep.col_bias = col_bias.data();
      ep.relu = true;
      PackedS8BWeights packed =
          PackedS8BWeights::Pack(trans_b, s.k, s.n, b.data());
      EXPECT_EQ(packed.depth(), s.k);
      EXPECT_EQ(packed.cols(), s.n);
      EXPECT_GT(packed.nbytes(), 0);
      for (bool parallel : {false, true}) {
        std::vector<float> c1(s.m * s.n, -1.0f), c2(s.m * s.n, -1.0f);
        const GemmS8A ad = GemmS8A::Raw(s.m, s.k, a.data());
        GemmS8(ad, GemmS8B::Raw(s.k, s.n, b.data(), trans_b), c1.data(), ep,
               parallel);
        GemmS8(ad, GemmS8B::Packed(packed), c2.data(), ep, parallel);
        ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                                 c1.size() * sizeof(float)))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " tb=" << trans_b << " parallel=" << parallel;
      }
    }
  }
}

TEST(PackedS8WeightsTest, UnpackIsTheExactInverseOfPack) {
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {5, 3}, {16, 64}, {241, 130}, {33, 321}};
  for (const auto& [m, k] : shapes) {
    Rng rng(m * 100 + k);
    std::vector<int8_t> a(m * k);
    FillInt8(&a, rng);
    PackedS8Weights packed = PackedS8Weights::Pack(m, k, a.data());
    std::vector<int8_t> back(m * k, 99);
    packed.Unpack(back.data());
    ASSERT_EQ(0, std::memcmp(a.data(), back.data(), a.size()))
        << "m=" << m << " k=" << k;
  }
}

TEST(LayerPrepackTest, LinearF32PrepackedForwardIsBitwise) {
  Rng rng1(5), rng2(5), rngx(6);
  Linear plain(130, 70, rng1);
  Linear packed(130, 70, rng2);
  packed.Prepack(ServingPrecision::kFloat32);
  EXPECT_GT(packed.PackedWeightBytes(), 0);
  EXPECT_EQ(plain.PackedWeightBytes(), 0);
  Tensor x = Tensor::Randn({9, 130}, rngx);
  Tensor y1 = plain.Forward(x, /*training=*/false);
  Tensor y2 = packed.Forward(x, /*training=*/false);
  ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           y1.numel() * sizeof(float)));
  // Fused-ReLU epilogue path too.
  Tensor r1 = plain.ForwardFusedRelu(x);
  Tensor r2 = packed.ForwardFusedRelu(x);
  ASSERT_EQ(0, std::memcmp(r1.data(), r2.data(),
                           r1.numel() * sizeof(float)));
}

// Int8 Linear packs its op(B) panels at conversion time: every int8
// forward serves from the panels (no raw weight copy exists), Prepack is
// a no-op that changes nothing, and the panels count under
// Int8WeightBytes only.
TEST(LayerPrepackTest, LinearInt8PacksAtConversionBitwise) {
  Rng rng1(7), rng2(7), rngx(8);
  Linear plain(96, 40, rng1);
  Linear packed(96, 40, rng2);
  plain.PrepareInt8Serving();
  packed.PrepareInt8Serving();
  packed.Prepack(ServingPrecision::kInt8);
  EXPECT_EQ(packed.PackedWeightBytes(), 0);
  EXPECT_GT(packed.Int8WeightBytes(), 0);
  EXPECT_EQ(packed.Int8WeightBytes(), plain.Int8WeightBytes());
  Tensor x = Tensor::Randn({11, 96}, rngx);
  Tensor y1 = plain.Forward(x, /*training=*/false);
  Tensor y2 = packed.Forward(x, /*training=*/false);
  ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           y1.numel() * sizeof(float)));
}

TEST(LayerPrepackTest, ConvF32PrepackedForwardIsBitwise) {
  for (int kernel : {1, 3}) {
    Rng rng1(3), rng2(3), rngx(4);
    const int pad = kernel / 2;
    Conv2d plain(6, 10, kernel, 1, pad, rng1, /*bias=*/true);
    Conv2d packed(6, 10, kernel, 1, pad, rng2, /*bias=*/true);
    packed.Prepack(ServingPrecision::kFloat32);
    EXPECT_GT(packed.PackedWeightBytes(), 0);
    Tensor x = Tensor::Randn({2, 6, 9, 9}, rngx);
    Tensor y1 = plain.Forward(x, /*training=*/false);
    Tensor y2 = packed.Forward(x, /*training=*/false);
    ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                             y1.numel() * sizeof(float)))
        << "kernel=" << kernel;
  }
}

// Calibrating on exactly the probe batch makes the static activation
// scale equal the dynamic max-abs scale, so the static-scale serving path
// must reproduce the dynamic path bit for bit.
TEST(LayerPrepackTest, ConvInt8StaticScaleMatchesDynamicBitwise) {
  Rng rng1(9), rng2(9), rngx(10);
  Conv2d dynamic(5, 8, 3, 1, 1, rng1);
  Conv2d calibrated(5, 8, 3, 1, 1, rng2);
  Tensor x = Tensor::Randn({3, 5, 7, 7}, rngx);
  calibrated.BeginActivationCalibration();
  calibrated.Forward(x, /*training=*/false);
  calibrated.FinishActivationCalibration();
  EXPECT_GT(calibrated.static_act_scale(), 0.0f);
  dynamic.PrepareInt8Serving();
  calibrated.PrepareInt8Serving();
  Tensor y1 = dynamic.Forward(x, /*training=*/false);
  Tensor y2 = calibrated.Forward(x, /*training=*/false);
  ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           y1.numel() * sizeof(float)));
}

TEST(LayerPrepackTest, LinearInt8StaticScaleMatchesDynamicBitwise) {
  Rng rng1(13), rng2(13), rngx(14);
  Linear dynamic(48, 20, rng1);
  Linear calibrated(48, 20, rng2);
  Tensor x = Tensor::Randn({6, 48}, rngx);
  calibrated.BeginActivationCalibration();
  calibrated.Forward(x, /*training=*/false);
  calibrated.FinishActivationCalibration();
  dynamic.PrepareInt8Serving();
  calibrated.PrepareInt8Serving();
  calibrated.Prepack(ServingPrecision::kInt8);
  Tensor y1 = dynamic.Forward(x, /*training=*/false);
  Tensor y2 = calibrated.Forward(x, /*training=*/false);
  ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                           y1.numel() * sizeof(float)));
}

TEST(LayerPrepackTest, PrepackIsIdempotent) {
  Rng rng(21);
  Linear lin(32, 16, rng);
  lin.Prepack(ServingPrecision::kFloat32);
  const int64_t bytes = lin.PackedWeightBytes();
  lin.Prepack(ServingPrecision::kFloat32);
  EXPECT_EQ(lin.PackedWeightBytes(), bytes);
  // Int8 conversion drops the stale f32 panels and builds the int8 op(B)
  // panels immediately (conversion-time packing): they count under
  // Int8WeightBytes, not PackedWeightBytes, and Prepack(kInt8) is a no-op.
  lin.PrepareInt8Serving();
  EXPECT_EQ(lin.PackedWeightBytes(), 0);
  const int64_t int8_bytes = lin.Int8WeightBytes();
  EXPECT_GT(int8_bytes, 0);
  lin.Prepack(ServingPrecision::kInt8);
  EXPECT_EQ(lin.PackedWeightBytes(), 0);
  EXPECT_EQ(lin.Int8WeightBytes(), int8_bytes);
}

}  // namespace
}  // namespace poe
