#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "util/parallel_for.h"
#include "util/rng.h"

namespace poe {
namespace {

// Fills a vector with deterministic uniform values.
void FillUniform(std::vector<float>* v, Rng& rng, float lo = -1.0f,
                 float hi = 1.0f) {
  for (auto& x : *v) x = rng.Uniform(lo, hi);
}

// Tolerance scaled to the accumulation depth: the optimized kernel sums in
// fp32 while GemmRef uses a double accumulator.
float Tol(int64_t k) { return 1e-5f * static_cast<float>(k) + 1e-4f; }

// The A operand forms: row-major, transposed storage, prepacked panels.
enum class AForm { kRaw, kTransposed, kPacked };

// (A form, trans_b, m, n, k)
using GemmCase = std::tuple<AForm, bool, int, int, int>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesReference) {
  const auto [form, tb, m, n, k] = GetParam();
  const bool ta = form == AForm::kTransposed;
  Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k + ta * 2 + tb));
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  PackedAWeights packed;
  if (form == AForm::kPacked) packed = PackedAWeights::Pack(m, k, a.data());
  const GemmA ad = form == AForm::kPacked ? GemmA::Packed(packed)
                                          : GemmA::Raw(m, k, a.data(), ta);

  for (bool accumulate : {false, true}) {
    std::vector<float> c(static_cast<size_t>(m) * n);
    FillUniform(&c, rng);
    std::vector<float> c_ref = c;
    GemmEpilogue ep;
    ep.accumulate = accumulate;
    Gemm(ad, GemmB::Raw(k, n, b.data(), tb), c.data(), ep,
         /*parallel=*/true);
    GemmRef(ta, tb, m, n, k, a.data(), b.data(), c_ref.data(), accumulate);
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], Tol(k))
          << "at " << i << " accumulate=" << accumulate;
    }
  }
}

// Odd/prime sizes hit every panel-edge case of the packed kernels; the
// larger sizes cross the MC/KC/NC cache-blocking boundaries.
std::vector<GemmCase> AllTransposeCases() {
  const int sizes[] = {1, 3, 17, 63, 129};
  std::vector<GemmCase> cases;
  for (AForm form : {AForm::kRaw, AForm::kTransposed, AForm::kPacked}) {
    for (bool tb : {false, true}) {
      for (int m : sizes)
        for (int n : sizes)
          for (int k : sizes) {
            // Cap the raw work product to keep the grid fast; this drops
            // the largest combinations (e.g. {63,129,129}), whose
            // panel-edge interplay is instead covered by the explicit
            // blocking-boundary cases below.
            if (m * n * k > 17 * 129 * 129) continue;
            cases.push_back({form, tb, m, n, k});
          }
      // Blocking-boundary cases: cross kMC=240, kKC=320, kNC=1024.
      cases.push_back({form, tb, 241, 65, 321});
      cases.push_back({form, tb, 256, 256, 72});
      cases.push_back({form, tb, 37, 1025, 11});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, GemmParamTest,
                         ::testing::ValuesIn(AllTransposeCases()));

TEST(GemmTest, OverwriteIgnoresGarbage) {
  std::vector<float> a = {1, 2};
  std::vector<float> b = {3};
  std::vector<float> c = {std::nanf(""), std::nanf("")};
  // 2x1 times 1x1 -> 2x1
  Gemm(GemmA::Raw(2, 1, a.data()), GemmB::Raw(1, 1, b.data()), c.data(),
       GemmEpilogue{}, /*parallel=*/false);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
}

// An empty product zeroes C, or keeps it when accumulating; the bias
// still applies.
TEST(GemmTest, KZeroWritesEpilogueOnly) {
  const std::vector<float> bias = {0.5f, -1.0f};
  for (bool accumulate : {false, true}) {
    std::vector<float> c = {2.0f, 4.0f};
    GemmEpilogue ep;
    ep.row_bias = bias.data();
    ep.accumulate = accumulate;
    Gemm(GemmA::Raw(2, 0, nullptr), GemmB::Raw(0, 1, nullptr), c.data(), ep,
         /*parallel=*/false);
    EXPECT_FLOAT_EQ(c[0], accumulate ? 2.5f : 0.5f);
    EXPECT_FLOAT_EQ(c[1], accumulate ? 3.0f : -1.0f);
  }
}

// The blocked GEMM writes each C micro-tile from exactly one task with a
// fixed k-accumulation order, so the threaded and sequential paths must be
// bitwise identical — not merely close — and so must every operand form
// of the same values.
TEST(GemmTest, ThreadedMatchesSequentialBitwise) {
  Rng rng(77);
  for (const auto& [m, n, k] :
       {std::tuple<int, int, int>{64, 48, 32},
        std::tuple<int, int, int>{300, 130, 400},
        std::tuple<int, int, int>{513, 257, 129}}) {
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    std::vector<float> c1(static_cast<size_t>(m) * n, 0.0f), c2 = c1;
    FillUniform(&a, rng);
    FillUniform(&b, rng);
    const GemmA ad = GemmA::Raw(m, k, a.data());
    const GemmB bd = GemmB::Raw(k, n, b.data());
    Gemm(ad, bd, c1.data(), GemmEpilogue{}, /*parallel=*/true);
    Gemm(ad, bd, c2.data(), GemmEpilogue{}, /*parallel=*/false);
    ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                             c1.size() * sizeof(float)))
        << "m=" << m << " n=" << n << " k=" << k;
    // A 1x1 conv view of B (k channels of a 1 x n image) is its own B
    // matrix: the conv operand must give the same product, bit for bit.
    ConvImageView view;
    view.padded = b.data();
    view.channels = k;
    view.height = 1;
    view.width = n;
    view.kernel = 1;
    std::vector<float> c3(c1.size(), -1.0f);
    Gemm(ad, GemmB::Conv(view), c3.data(), GemmEpilogue{},
         /*parallel=*/false);
    ASSERT_EQ(0, std::memcmp(c1.data(), c3.data(),
                             c1.size() * sizeof(float)))
        << "1x1 view m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(GemmTest, IdentityMultiplication) {
  const int n = 8;
  std::vector<float> eye(n * n, 0.0f);
  for (int i = 0; i < n; ++i) eye[i * n + i] = 1.0f;
  Rng rng(3);
  std::vector<float> x(n * n);
  FillUniform(&x, rng);
  std::vector<float> y(n * n, 0.0f);
  Gemm(GemmA::Raw(n, n, eye.data()), GemmB::Raw(n, n, x.data()), y.data(),
       GemmEpilogue{}, /*parallel=*/true);
  for (int i = 0; i < n * n; ++i) ASSERT_NEAR(y[i], x[i], 1e-6f);
}

TEST(GemmEpilogueTest, RowBiasMatchesManual) {
  Rng rng(11);
  const int m = 29, n = 83, k = 47;
  std::vector<float> a(m * k), b(k * n), bias(m);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  FillUniform(&bias, rng);
  std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);

  GemmEpilogue ep;
  ep.row_bias = bias.data();
  Gemm(GemmA::Raw(m, k, a.data()), GemmB::Raw(k, n, b.data()), c.data(), ep,
       /*parallel=*/false);

  GemmRef(false, false, m, n, k, a.data(), b.data(), c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) c_ref[i * n + j] += bias[i];
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

TEST(GemmEpilogueTest, ColBiasReluMatchesManual) {
  Rng rng(13);
  const int m = 65, n = 31, k = 129;
  std::vector<float> a(m * k), b(n * k), bias(n);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  FillUniform(&bias, rng);
  std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);

  GemmEpilogue ep;
  ep.col_bias = bias.data();
  ep.relu = true;
  Gemm(GemmA::Raw(m, k, a.data()), GemmB::Raw(k, n, b.data(), /*trans=*/true),
       c.data(), ep, /*parallel=*/true);

  GemmRef(false, true, m, n, k, a.data(), b.data(), c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      c_ref[i * n + j] = std::max(0.0f, c_ref[i * n + j] + bias[j]);
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

// The epilogue must fire exactly once (on the last k-block), even when k
// spans multiple KC blocks.
TEST(GemmEpilogueTest, MultiKBlockAppliesEpilogueOnce) {
  Rng rng(17);
  const int m = 13, n = 21, k = 700;  // k > 2 * kKC(320)
  std::vector<float> a(m * k), b(k * n), bias(m);
  FillUniform(&a, rng);
  FillUniform(&b, rng);
  FillUniform(&bias, rng, 5.0f, 6.0f);  // large bias exposes double-adds
  std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);

  GemmEpilogue ep;
  ep.row_bias = bias.data();
  ep.relu = true;
  Gemm(GemmA::Raw(m, k, a.data()), GemmB::Raw(k, n, b.data()), c.data(), ep,
       /*parallel=*/false);

  GemmRef(false, false, m, n, k, a.data(), b.data(), c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      c_ref[i * n + j] = std::max(0.0f, c_ref[i * n + j] + bias[i]);
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

// Above the fan-out threshold a parallel Gemm spreads the f32 kernel's
// NR-column micro-panels of one kNC = 1024 column stripe; below it, one
// task.
TEST(GemmTest, ParallelTilesCountTheF32KernelsMicroPanels) {
  const std::string name = GemmKernelName();
  const int64_t nr = name == "avx512" ? 32 : 16;
  EXPECT_EQ(GemmParallelTiles(0, 10, 10), 0);
  EXPECT_EQ(GemmParallelTiles(4, 4, 4), 1);
  // 64 x 1000 x 64 multiply-accumulates reach kMinFanOutWork.
  if (NumThreads() == 1) {
    EXPECT_EQ(GemmParallelTiles(64, 1000, 64), 1);
    return;
  }
  EXPECT_EQ(GemmParallelTiles(64, 1000, 64), (1000 + nr - 1) / nr);
  EXPECT_EQ(GemmParallelTiles(64, 3000, 64), 1024 / nr);
}

TEST(GemmTest, KernelNameIsKnown) {
  const std::string name = GemmKernelName();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "scalar")
      << name;
}

}  // namespace
}  // namespace poe
