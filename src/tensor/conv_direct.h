// Im2col-free convolution: views of a zero-padded input image that the
// blocked GEMM packs its B panels from directly. GemmB::Conv and
// GemmS8B::Conv make a view a GEMM operand; every Conv2d forward (f32 and
// int8, training and inference, any stride and pad) multiplies one, and
// im2col survives only in Conv2d::Backward.
//
// The view replaces the materialized im2col matrix (which duplicates
// every input element kernel*kernel times) with a single zero-padded copy
// of the image, or the image itself when pad == 0. The GEMM's B-panel
// packers gather the *virtual* im2col matrix straight out of it while
// packing: column (oh, ow) of the (c, kh, kw) row reads padded element
// (c, oh*stride + kh, ow*stride + kw). At stride 1 a run of output columns
// inside one output row is contiguous in the padded image, so the gather
// is spans/memcpys (f32) or straight SIMD loads (int8); larger strides
// gather element by element. A 1x1, pad-0, stride-1 view is its own B
// matrix, and the operand describes it as one. The packed panel bytes are
// identical to what PackB/PackBs8 would produce from the real im2col
// matrix, so the GEMM arithmetic — and therefore the conv output — is
// bitwise identical to im2col + GEMM on every kernel tier, by
// construction.
#ifndef POE_TENSOR_CONV_DIRECT_H_
#define POE_TENSOR_CONV_DIRECT_H_

#include <cstdint>

namespace poe {

/// A zero-padded image the GEMM reads the virtual im2col matrix from.
/// `padded` holds channels x (height + 2*pad) x (width + 2*pad) elements;
/// the interior is the image, the border is exact zero (float 0.0f or
/// quantized 0, matching what Im2Col writes for out-of-range taps).
template <typename T>
struct ConvImageViewT {
  const T* padded = nullptr;
  int64_t channels = 0;
  int64_t height = 0;  ///< logical (unpadded) image height
  int64_t width = 0;   ///< logical (unpadded) image width
  int64_t kernel = 0;  ///< square kernel extent
  int64_t pad = 0;
  int64_t stride = 1;

  int64_t padded_h() const { return height + 2 * pad; }
  int64_t padded_w() const { return width + 2 * pad; }
  int64_t out_h() const { return (height + 2 * pad - kernel) / stride + 1; }
  int64_t out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  /// GEMM reduction depth (im2col rows): channels * kernel^2.
  int64_t depth() const { return channels * kernel * kernel; }
  /// GEMM output columns (im2col columns): out_h * out_w.
  int64_t cols() const { return out_h() * out_w(); }
  /// True when the virtual im2col matrix is the image itself, row-major
  /// channels x (height * width): the GEMM then packs `padded` as a plain
  /// B matrix.
  bool is_matrix() const { return kernel == 1 && pad == 0 && stride == 1; }
};

using ConvImageView = ConvImageViewT<float>;
using ConvImageViewS8 = ConvImageViewT<int8_t>;

/// Number of elements a padded copy of one image needs. Zero when pad == 0
/// (the view can alias the input image directly — no copy at all).
inline int64_t PaddedImageElems(int64_t channels, int64_t height,
                                int64_t width, int64_t pad) {
  return pad == 0 ? 0
                  : channels * (height + 2 * pad) * (width + 2 * pad);
}

/// Zeroes the border of a padded image buffer once; the interior may stay
/// uninitialized (CopyImageInterior overwrites all of it). Callers reuse
/// one buffer across a batch: the borders only need zeroing once because
/// interior copies never touch them.
void ZeroImageBorder(float* padded, int64_t channels, int64_t height,
                     int64_t width, int64_t pad);
void ZeroImageBorder(int8_t* padded, int64_t channels, int64_t height,
                     int64_t width, int64_t pad);

/// Copies a CHW image into the interior of a padded buffer (f32).
void CopyImageInterior(const float* image, int64_t channels, int64_t height,
                       int64_t width, int64_t pad, float* padded);
/// Same for an already-quantized int8 image.
void CopyImageInterior(const int8_t* image, int64_t channels, int64_t height,
                       int64_t width, int64_t pad, int8_t* padded);

}  // namespace poe

#endif  // POE_TENSOR_CONV_DIRECT_H_
