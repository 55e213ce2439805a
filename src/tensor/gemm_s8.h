// Blocked, packed, SIMD-dispatched int8 x int8 -> int32 GEMM with a fused
// dequantizing epilogue: the quantized serving hot path. Like the f32 GEMM
// (tensor/gemm.h) it is one driver over operand descriptors, with the same
// MC/NC tiling and schedule (docs/PERF.md); it adds a KR k-group interleave
// for the 8-bit dot-product instructions.
#ifndef POE_TENSOR_GEMM_S8_H_
#define POE_TENSOR_GEMM_S8_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/conv_direct.h"

namespace poe {

/// Output transform applied in the int32 -> f32 store pass. The raw
/// product acc = sum_p op(A)(i,p) * op(B)(p,j) becomes
///
///   v = acc * scale * row_scale[i] * col_scale[j] + row_bias[i] + col_bias[j]
///   C(i,j) = relu ? max(0, v) : v
///
/// with absent pointers treated as 1 (scales) / 0 (biases). Quantized
/// layers put the activation scale in `scale` and the per-output-channel
/// weight scales in row_scale (conv layout: C rows are channels) or
/// col_scale (linear layout: C columns are features).
struct GemmS8Epilogue {
  float scale = 1.0f;
  const float* row_scale = nullptr;  ///< length m
  const float* col_scale = nullptr;  ///< length n
  const float* row_bias = nullptr;   ///< length m, f32, added after dequant
  const float* col_bias = nullptr;   ///< length n, f32, added after dequant
  bool relu = false;
};

/// Weights pre-packed once into the dispatched kernel's A panel layout
/// (an m x k row-major int8 matrix). Serving layers build this at
/// quantization time so per-query GEMMs skip the A-packing pass and the
/// f32 weights can be released. Valid only within the process that packed
/// it (the layout depends on the dispatched kernel geometry).
class PackedS8Weights {
 public:
  PackedS8Weights() = default;
  static PackedS8Weights Pack(int64_t m, int64_t k, const int8_t* a);

  /// Reconstructs the original row-major m x k int8 matrix into `out`
  /// (m*k entries) — the exact inverse of Pack for this process's kernel.
  /// Serialization exports through this, so persisted int8 pools stay
  /// kernel-layout independent without holding a second raw copy of the
  /// weights in memory.
  void Unpack(int8_t* out) const;

  bool empty() const { return data_.empty(); }
  int64_t rows() const { return m_; }
  int64_t depth() const { return k_; }
  /// Bytes held by the packed panels (the serving footprint of the
  /// weight matrix).
  int64_t nbytes() const { return static_cast<int64_t>(data_.size()); }

 private:
  friend struct GemmS8A;
  std::vector<uint8_t> data_;  // shift-applied panels, kpad*mr per panel
  int64_t m_ = 0, k_ = 0;
};

/// op(B) of a k x n int8 product pre-packed ONCE into the dispatched
/// kernel's NR-column / KR-group panel layout, column sums included (the
/// shift-compensation term the dequantizing store needs). Linear's int8
/// serving weight is op(B) = W^T, and this form deletes its per-call
/// transposed pack. Panel bytes and colsums are identical to the
/// on-the-fly pack, so the product is bitwise identical to the one over
/// the raw matrix. Process-local (layout depends on the dispatched kernel
/// geometry).
class PackedS8BWeights {
 public:
  PackedS8BWeights() = default;
  static PackedS8BWeights Pack(bool trans_b, int64_t k, int64_t n,
                               const int8_t* b);

  /// Reconstructs the trans_b = true Pack source — the n x k row-major
  /// int8 matrix whose transpose the panels encode — into `out` (n*k
  /// entries); for a !trans_b source this is B^T. The exact inverse of
  /// Pack for this process's kernel, so int8 Linear can serve from the
  /// panels alone and still export a layout-independent raw weight copy
  /// for serialization.
  void Unpack(int8_t* out) const;

  bool empty() const { return data_.empty(); }
  int64_t depth() const { return k_; }
  int64_t cols() const { return n_; }
  /// Bytes held by the packed panels plus the column sums.
  int64_t nbytes() const {
    return static_cast<int64_t>(data_.size()) +
           static_cast<int64_t>(colsum_.size() * sizeof(int32_t));
  }

 private:
  friend struct GemmS8B;
  std::vector<int8_t> data_;     // per column tile: kpad*nr panels
  std::vector<int32_t> colsum_;  // per packed column (nr-padded per tile)
  int64_t k_ = 0, n_ = 0;
};

/// The A operand of GemmS8 (m x k): a row-major int8 matrix or prepacked
/// panels. Descriptors point into caller storage.
struct GemmS8A {
  static GemmS8A Raw(int64_t m, int64_t k, const int8_t* a);
  static GemmS8A Packed(const PackedS8Weights& a);

  int64_t m = 0, k = 0;
  const int8_t* data = nullptr;     ///< raw storage
  const uint8_t* panels = nullptr;  ///< set for prepacked panels
};

/// The B operand of GemmS8, op(B) with depth k and n columns: a row-major
/// int8 matrix, prepacked panels, or the virtual im2col matrix of a
/// quantized conv image view, gathered while packing (PackBs8Conv / the
/// kernels' SIMD conv packers) at any stride. A 1x1, pad-0, stride-1 view
/// is the plain matrix it holds, and Conv() describes it as one.
struct GemmS8B {
  /// op(B) = B stored k x n, or B^T of an n x k storage when `trans`.
  static GemmS8B Raw(int64_t k, int64_t n, const int8_t* b,
                     bool trans = false);
  static GemmS8B Packed(const PackedS8BWeights& b);
  static GemmS8B Conv(const ConvImageViewS8& img);

  int64_t k = 0, n = 0;
  const int8_t* data = nullptr;     ///< raw storage
  bool trans = false;
  const int8_t* panels = nullptr;   ///< set for prepacked panels
  const int32_t* colsum = nullptr;  ///< their column sums
  ConvImageViewS8 conv;             ///< used when conv.padded is set
};

/// C (f32, a.m x b.n, row-major) = epilogue(A * op(B)) where A and B are
/// int8 and the product accumulates exactly in int32 (no intermediate
/// rounding). A's depth must equal B's and be at most 1 << 16, so the
/// worst-case accumulator cannot overflow. `parallel` has the f32 Gemm's
/// meaning. Within a process results are bitwise identical across thread
/// counts and operand forms of the same values (panel bytes and colsums
/// do not depend on the source); different kernels may differ by a few
/// ulps in the f32 epilogue (the VNNI store vectorizes it with a different
/// operation order).
void GemmS8(const GemmS8A& a, const GemmS8B& b, float* c,
            const GemmS8Epilogue& epilogue, bool parallel);

/// GemmParallelTiles for GemmS8: 1 below the fan-out threshold, else the
/// int8 kernel's NR-column micro-panels in one column stripe.
int64_t GemmS8ParallelTiles(int64_t m, int64_t n, int64_t k);

/// Naive triple-loop reference with exact int32 accumulation and the same
/// epilogue arithmetic (bitwise-identical outputs). The test oracle; A is
/// row-major m x k, op(B) as in GemmS8B::Raw.
void GemmS8Ref(bool trans_b, int64_t m, int64_t n, int64_t k,
               const int8_t* a, const int8_t* b, float* c,
               const GemmS8Epilogue& epilogue);

/// Name of the dispatched int8 micro-kernel ("avx512vnni", "avx2",
/// "scalar"). Selection is automatic per CPU features; POE_GEMM_KERNEL
/// forces a variant ("avx512" selects the VNNI kernel; unsupported values
/// fall back to auto-detection).
const char* GemmS8KernelName();

/// The project-wide int8 rounding rule for one value: scale, clamp to
/// [-127, 127], round half away from zero. QuantizeBufferS8 applies
/// exactly this to every element, scalar tail and vector body alike.
inline int8_t QuantizeOneS8(float v, float inv_scale) {
  v *= inv_scale;
  // min-first clamp order absorbs NaN to 127 (std::min(127, NaN) == 127),
  // matching the vectorized path's MINPS(x, 127) semantics — no UB cast,
  // no scalar/SIMD divergence on pathological inputs.
  v = std::max(-127.0f, std::min(127.0f, v));
  return static_cast<int8_t>(
      static_cast<int32_t>(v + (v >= 0.0f ? 0.5f : -0.5f)));
}

/// Quantizes `n` f32 values symmetrically to int8 with `inv_scale` =
/// 1 / SymmetricScaleS8(...) (round half away from zero, clamped to
/// [-127, 127]). The single rounding routine behind both the dynamic
/// activation quantization of the serving layers and the snapshot
/// quantization in compress/quantize.cc.
void QuantizeBufferS8(const float* src, int64_t n, float inv_scale,
                      int8_t* dst);

/// Symmetric max-abs int8 scale of `n` values: max|x| / 127, or 1 when
/// all values are zero (so zero tensors round-trip exactly).
float SymmetricScaleS8(const float* src, int64_t n);

/// Max |x| over `n` floats (0 for n == 0). NaNs are skipped — the scalar
/// `v > max` test is false for NaN — and the AVX2 path reproduces exactly
/// that (MAXPS keeps the running max on unordered compares), so like
/// QuantizeBufferS8 it is bitwise identical to the scalar loop and engages
/// on CPU capability alone. The scan behind every dynamic activation scale
/// and the snapshot quantizer's per-channel scales.
float MaxAbs(const float* src, int64_t n);

}  // namespace poe

#endif  // POE_TENSOR_GEMM_S8_H_
