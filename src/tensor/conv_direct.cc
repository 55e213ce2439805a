#include "tensor/conv_direct.h"

#include <cstring>

#include "util/logging.h"

namespace poe {

namespace {

template <typename T>
void ZeroImageBorderT(T* padded, int64_t channels, int64_t height,
                      int64_t width, int64_t pad) {
  if (pad == 0) return;
  const int64_t ph = height + 2 * pad;
  const int64_t pw = width + 2 * pad;
  for (int64_t c = 0; c < channels; ++c) {
    T* img = padded + c * ph * pw;
    // Top and bottom pad rows in full.
    std::memset(img, 0, static_cast<size_t>(pad * pw) * sizeof(T));
    std::memset(img + (ph - pad) * pw, 0,
                static_cast<size_t>(pad * pw) * sizeof(T));
    // Left/right pad columns of every interior row.
    for (int64_t y = pad; y < ph - pad; ++y) {
      T* row = img + y * pw;
      std::memset(row, 0, static_cast<size_t>(pad) * sizeof(T));
      std::memset(row + pw - pad, 0, static_cast<size_t>(pad) * sizeof(T));
    }
  }
}

template <typename T>
void CopyImageInteriorT(const T* image, int64_t channels, int64_t height,
                        int64_t width, int64_t pad, T* padded) {
  POE_CHECK_GT(pad, 0);  // pad == 0 aliases the image, no copy
  const int64_t ph = height + 2 * pad;
  const int64_t pw = width + 2 * pad;
  for (int64_t c = 0; c < channels; ++c) {
    const T* src = image + c * height * width;
    T* dst = padded + (c * ph + pad) * pw + pad;
    for (int64_t y = 0; y < height; ++y) {
      std::memcpy(dst + y * pw, src + y * width,
                  static_cast<size_t>(width) * sizeof(T));
    }
  }
}

}  // namespace

void ZeroImageBorder(float* padded, int64_t channels, int64_t height,
                     int64_t width, int64_t pad) {
  ZeroImageBorderT(padded, channels, height, width, pad);
}

void ZeroImageBorder(int8_t* padded, int64_t channels, int64_t height,
                     int64_t width, int64_t pad) {
  ZeroImageBorderT(padded, channels, height, width, pad);
}

void CopyImageInterior(const float* image, int64_t channels, int64_t height,
                       int64_t width, int64_t pad, float* padded) {
  CopyImageInteriorT(image, channels, height, width, pad, padded);
}

void CopyImageInterior(const int8_t* image, int64_t channels, int64_t height,
                       int64_t width, int64_t pad, int8_t* padded) {
  CopyImageInteriorT(image, channels, height, width, pad, padded);
}

}  // namespace poe
