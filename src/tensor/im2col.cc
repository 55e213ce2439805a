#include "tensor/im2col.h"

namespace poe {

namespace {

// Shared unfold over the element type, f32 or int8 (zero padding is exact
// in both domains).
template <typename T>
void Im2ColT(const T* image, int64_t channels, int64_t height, int64_t width,
             int64_t kernel_h, int64_t kernel_w, int64_t pad, int64_t stride,
             T* columns) {
  const int64_t out_h = ConvOutSize(height, kernel_h, pad, stride);
  const int64_t out_w = ConvOutSize(width, kernel_w, pad, stride);
  const int64_t out_hw = out_h * out_w;
  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    const T* img_c = image + c * height * width;
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw, ++row) {
        T* col_row = columns + row * out_hw;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) {
            for (int64_t ow = 0; ow < out_w; ++ow)
              col_row[oh * out_w + ow] = T(0);
            continue;
          }
          const T* img_row = img_c + ih * width;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride - pad + kw;
            col_row[oh * out_w + ow] =
                (iw >= 0 && iw < width) ? img_row[iw] : T(0);
          }
        }
      }
    }
  }
}

}  // namespace

void Im2Col(const float* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, float* columns) {
  Im2ColT(image, channels, height, width, kernel_h, kernel_w, pad, stride,
          columns);
}

void Im2Col(const int8_t* image, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, int8_t* columns) {
  Im2ColT(image, channels, height, width, kernel_h, kernel_w, pad, stride,
          columns);
}

void Col2Im(const float* columns, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
            int64_t stride, float* image_grad) {
  const int64_t out_h = ConvOutSize(height, kernel_h, pad, stride);
  const int64_t out_w = ConvOutSize(width, kernel_w, pad, stride);
  const int64_t out_hw = out_h * out_w;
  int64_t row = 0;
  for (int64_t c = 0; c < channels; ++c) {
    float* img_c = image_grad + c * height * width;
    for (int64_t kh = 0; kh < kernel_h; ++kh) {
      for (int64_t kw = 0; kw < kernel_w; ++kw, ++row) {
        const float* col_row = columns + row * out_hw;
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= height) continue;
          float* img_row = img_c + ih * width;
          for (int64_t ow = 0; ow < out_w; ++ow) {
            const int64_t iw = ow * stride - pad + kw;
            if (iw >= 0 && iw < width) img_row[iw] += col_row[oh * out_w + ow];
          }
        }
      }
    }
  }
}

}  // namespace poe
