#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

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

// (trans_a, trans_b, m, n, k)
using GemmCase = std::tuple<bool, bool, int, int, int>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 10007 + n * 101 + k + ta * 2 + tb));
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  FillUniform(&a, rng);
  FillUniform(&b, rng);

  const float alphas[] = {1.0f, 0.7f, -0.3f, 0.0f};
  const float betas[] = {0.0f, 1.0f, 0.3f, -2.0f};
  for (float alpha : alphas) {
    for (float beta : betas) {
      std::vector<float> c(static_cast<size_t>(m) * n);
      FillUniform(&c, rng);
      std::vector<float> c_ref = c;
      Gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c.data());
      GemmRef(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
              c_ref.data());
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c[i], c_ref[i], Tol(k))
            << "at " << i << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

// Odd/prime sizes hit every panel-edge case of the packed kernels; the
// larger sizes cross the MC/KC/NC cache-blocking boundaries.
std::vector<GemmCase> AllTransposeCases() {
  const int sizes[] = {1, 3, 17, 63, 129};
  std::vector<GemmCase> cases;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      for (int m : sizes)
        for (int n : sizes)
          for (int k : sizes) {
            // Cap the raw work product to keep the grid fast; this drops
            // the largest combinations (e.g. {63,129,129}), whose
            // panel-edge interplay is instead covered by the explicit
            // blocking-boundary cases below.
            if (m * n * k > 17 * 129 * 129) continue;
            cases.push_back({ta, tb, m, n, k});
          }
      // Blocking-boundary cases: cross kMC=240, kKC=320, kNC=1024.
      cases.push_back({ta, tb, 241, 65, 321});
      cases.push_back({ta, tb, 256, 256, 72});
      cases.push_back({ta, tb, 37, 1025, 11});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, GemmParamTest,
                         ::testing::ValuesIn(AllTransposeCases()));

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  std::vector<float> a = {1, 2};
  std::vector<float> b = {3, 4};
  std::vector<float> c = {std::nanf(""), std::nanf("")};
  // 2x1 times 1x1 -> 2x1
  Gemm(false, false, 2, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
  (void)b;
}

TEST(GemmTest, KZeroScalesOnly) {
  std::vector<float> c = {2.0f, 4.0f};
  Gemm(false, false, 2, 1, 0, 1.0f, nullptr, nullptr, 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
}

// The blocked GEMM assigns each C macro-tile to exactly one task with a
// fixed k-accumulation order, so the threaded and sequential paths must be
// bitwise identical — not merely close.
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
    Gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
    GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c2.data(),
           GemmEpilogue{}, /*parallel=*/false);
    ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                             c1.size() * sizeof(float)))
        << "m=" << m << " n=" << n << " k=" << k;
    // A 1x1 conv view of B (k channels of a 1 x n image) is its own B
    // matrix: the conv entry point must be the same product, bit for bit.
    ConvImageView view;
    view.padded = b.data();
    view.channels = k;
    view.height = 1;
    view.width = n;
    view.kernel = 1;
    std::vector<float> c3(c1.size(), -1.0f);
    GemmConvEx(m, a.data(), view, 1.0f, 0.0f, c3.data(), GemmEpilogue{},
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
  Gemm(false, false, n, n, n, 1.0f, eye.data(), x.data(), 0.0f, y.data());
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
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(),
         ep, /*parallel=*/false);

  GemmRef(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
          c_ref.data());
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
  GemmEx(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(), ep,
         /*parallel=*/true);

  GemmRef(false, true, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
          c_ref.data());
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
  GemmEx(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(),
         ep, /*parallel=*/false);

  GemmRef(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
          c_ref.data());
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      c_ref[i * n + j] = std::max(0.0f, c_ref[i * n + j] + bias[i]);
  for (int i = 0; i < m * n; ++i) ASSERT_NEAR(c[i], c_ref[i], Tol(k));
}

TEST(GemmTest, KernelNameIsKnown) {
  const std::string name = GemmKernelName();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "scalar")
      << name;
}

}  // namespace
}  // namespace poe
