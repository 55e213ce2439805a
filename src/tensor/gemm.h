// Blocked, packed, SIMD-dispatched single-precision GEMM: the one product
// behind every conv (through an im2col-free image view, tensor/conv_direct.h)
// and linear layer, forward and backward. Operand descriptors say where A
// and B come from; one driver multiplies every combination and differs per
// operand form only in how it packs a block. See docs/PERF.md.
#ifndef POE_TENSOR_GEMM_H_
#define POE_TENSOR_GEMM_H_

#include <cstdint>
#include <vector>

#include "tensor/conv_direct.h"

namespace poe {

/// How the product is written into C. The bias and ReLU terms are applied
/// after the matrix product is complete (on the final k-block, in the same
/// pass that writes C), so inference layers avoid separate sweeps over the
/// output.
struct GemmEpilogue {
  /// Added to every element of row i of C (length m). Conv layout:
  /// C is [out_channels x out_h*out_w], bias is per channel (= per row).
  const float* row_bias = nullptr;
  /// Added to every element of column j of C (length n). Linear layout:
  /// C is [batch x out_features], bias is per feature (= per column).
  const float* col_bias = nullptr;
  /// Applies max(0, x) after the bias terms.
  bool relu = false;
  /// C += product (gradient accumulation) instead of C = product.
  bool accumulate = false;
};

/// An m x k A operand pre-packed ONCE into the dispatched kernel's MR-row
/// panel layout, covering every (row-tile, k-block) of the blocked GEMM.
/// Serving layers whose weight matrix is the A operand (Conv2d:
/// [out_channels x ckk]) build this at prepack time so steady-state
/// forwards skip the per-call A pack. The panel bytes are identical to what
/// the on-the-fly pack produces, so the product is bitwise identical to the
/// one over the raw matrix. Valid only within the process that packed it
/// (the layout depends on the dispatched kernel geometry).
class PackedAWeights {
 public:
  PackedAWeights() = default;
  /// Packs the row-major m x k matrix `a`.
  static PackedAWeights Pack(int64_t m, int64_t k, const float* a);

  bool empty() const { return data_.empty(); }
  int64_t rows() const { return m_; }
  int64_t depth() const { return k_; }
  /// Bytes held by the packed panels.
  int64_t nbytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(float));
  }

 private:
  friend struct GemmA;
  std::vector<float> data_;  // per k-block: ceil(m/mr) panels of kc*mr
  int64_t m_ = 0, k_ = 0;
};

/// op(B) of a k x n product pre-packed ONCE into the dispatched kernel's
/// NR-column panel layout, covering every (column-tile, k-block). Serving
/// layers whose weight matrix is the B operand (Linear: y = x W^T, op(B) =
/// W^T) build this at prepack time. Bitwise identical to the on-the-fly
/// pack; process-local like PackedAWeights.
class PackedBWeights {
 public:
  PackedBWeights() = default;
  static PackedBWeights Pack(bool trans_b, int64_t k, int64_t n,
                             const float* b);

  bool empty() const { return data_.empty(); }
  int64_t depth() const { return k_; }
  int64_t cols() const { return n_; }
  int64_t nbytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(float));
  }

 private:
  friend struct GemmB;
  std::vector<float> data_;  // per column tile: k-blocks of panels
  int64_t k_ = 0, n_ = 0;
};

/// The A operand of Gemm, op(A) with m rows and depth k: a row-major
/// matrix or prepacked panels. Descriptors point into caller storage.
struct GemmA {
  /// op(A) = A stored m x k, or A^T of a k x m storage when `trans`.
  static GemmA Raw(int64_t m, int64_t k, const float* a, bool trans = false);
  static GemmA Packed(const PackedAWeights& a);

  int64_t m = 0, k = 0;
  const float* data = nullptr;    ///< raw storage
  bool trans = false;
  const float* panels = nullptr;  ///< set for prepacked panels
};

/// The B operand of Gemm, op(B) with depth k and n columns: a row-major
/// matrix, prepacked panels, or the virtual im2col matrix of a conv image
/// view (img.depth() x img.cols()), which the B pack gathers on the fly at
/// any stride (PackBConv). A 1x1, pad-0, stride-1 view is the plain matrix
/// it holds, and Conv() describes it as one.
struct GemmB {
  /// op(B) = B stored k x n, or B^T of an n x k storage when `trans`.
  static GemmB Raw(int64_t k, int64_t n, const float* b, bool trans = false);
  static GemmB Packed(const PackedBWeights& b);
  static GemmB Conv(const ConvImageView& img);

  int64_t k = 0, n = 0;
  const float* data = nullptr;    ///< raw storage
  bool trans = false;
  const float* panels = nullptr;  ///< set for prepacked panels
  ConvImageView conv;             ///< used when conv.padded is set
};

/// C (a.m x b.n, row-major) = op(A) * op(B), or C += op(A) * op(B) with
/// ep.accumulate, then ep's bias and ReLU. A's depth must equal B's.
/// `parallel = false` keeps the product on the calling thread (for callers
/// that parallelize at an outer level); a parallel product still runs
/// inline unless ShouldFanOut(m * n * k). The result is bitwise identical
/// for every operand form of the same values and for both settings of
/// `parallel`: packed panels are byte-identical whatever their source, and
/// every C micro-tile is written by one task in ascending k-block order.
void Gemm(const GemmA& a, const GemmB& b, float* c, const GemmEpilogue& ep,
          bool parallel);

/// Number of tasks a parallel Gemm of an m x n x k product spreads over
/// the worker pool: 1 below the fan-out threshold (ShouldFanOut), else the
/// kernel's NR-column micro-panels in one column stripe. Conv layers choose
/// between batch-level and GEMM-level parallelism with it.
int64_t GemmParallelTiles(int64_t m, int64_t n, int64_t k);

/// Naive triple-loop reference implementation (double accumulator) of
/// C = op(A) * op(B), or C += op(A) * op(B) with `accumulate`. The test
/// oracle for the optimized paths; never used on the hot path.
void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             const float* a, const float* b, float* c,
             bool accumulate = false);

/// Name of the dispatched micro-kernel ("avx512", "avx2", "scalar") for
/// logging and benchmark labeling. Selection is automatic per CPU
/// features; the POE_GEMM_KERNEL environment variable forces a variant
/// (unsupported values fall back to auto-detection).
const char* GemmKernelName();

}  // namespace poe

#endif  // POE_TENSOR_GEMM_H_
