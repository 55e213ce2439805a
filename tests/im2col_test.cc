#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.h"

namespace poe {
namespace {

TEST(Im2ColTest, OutSize) {
  EXPECT_EQ(ConvOutSize(8, 3, 1, 1), 8);
  EXPECT_EQ(ConvOutSize(8, 3, 1, 2), 4);
  EXPECT_EQ(ConvOutSize(8, 1, 0, 1), 8);
  EXPECT_EQ(ConvOutSize(8, 1, 0, 2), 4);
  EXPECT_EQ(ConvOutSize(5, 3, 0, 1), 3);
}

TEST(Im2ColTest, OneByOneKernelIsIdentity) {
  const int c = 2, h = 3, w = 3;
  std::vector<float> img(c * h * w);
  for (size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(c * h * w);
  Im2Col(img.data(), c, h, w, 1, 1, 0, 1, cols.data());
  for (size_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2ColTest, CenterTapOfPadded3x3EqualsImage) {
  const int h = 4, w = 4;
  std::vector<float> img(h * w);
  for (int i = 0; i < h * w; ++i) img[i] = static_cast<float>(i + 1);
  std::vector<float> cols(9 * h * w);
  Im2Col(img.data(), 1, h, w, 3, 3, 1, 1, cols.data());
  // Row 4 (kh=1, kw=1) is the center tap: equals the original image.
  for (int i = 0; i < h * w; ++i) EXPECT_EQ(cols[4 * h * w + i], img[i]);
  // Top-left tap (kh=0,kw=0) at output (0,0) looks at (-1,-1): padding.
  EXPECT_EQ(cols[0], 0.0f);
}

TEST(Im2ColTest, StridedSamplesCorrectPixels) {
  const int h = 4, w = 4;
  std::vector<float> img(h * w);
  for (int i = 0; i < h * w; ++i) img[i] = static_cast<float>(i);
  // 1x1 kernel, stride 2: picks pixels (0,0),(0,2),(2,0),(2,2).
  std::vector<float> cols(4);
  Im2Col(img.data(), 1, h, w, 1, 1, 0, 2, cols.data());
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[1], 2.0f);
  EXPECT_EQ(cols[2], 8.0f);
  EXPECT_EQ(cols[3], 10.0f);
}

// Col2Im must be the adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)>.
TEST(Im2ColTest, Col2ImIsAdjointOfIm2Col) {
  const int c = 2, h = 5, w = 4, k = 3, pad = 1, stride = 2;
  const int out_h = static_cast<int>(ConvOutSize(h, k, pad, stride));
  const int out_w = static_cast<int>(ConvOutSize(w, k, pad, stride));
  const int rows = c * k * k, cols_n = out_h * out_w;

  Rng rng(11);
  std::vector<float> x(c * h * w), y(rows * cols_n);
  for (auto& v : x) v = rng.Uniform(-1.0f, 1.0f);
  for (auto& v : y) v = rng.Uniform(-1.0f, 1.0f);

  std::vector<float> cols(rows * cols_n);
  Im2Col(x.data(), c, h, w, k, k, pad, stride, cols.data());
  double lhs = 0.0;
  for (size_t i = 0; i < y.size(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];

  std::vector<float> xt(c * h * w, 0.0f);
  Col2Im(y.data(), c, h, w, k, k, pad, stride, xt.data());
  double rhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i]) * xt[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace poe
