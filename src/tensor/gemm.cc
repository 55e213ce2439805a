#include "tensor/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tensor/arena.h"
#include "tensor/pack.h"
#include "util/logging.h"
#include "util/parallel_for.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define POE_GEMM_X86 1
#include <immintrin.h>
#endif

namespace poe {

namespace {

// Cache blocking (floats). One op(A) block (kMC x kKC, ~300 KB) lives in L2
// while a kKC x NR slice of packed op(B) (~40 KB) streams through L1.
constexpr int64_t kMC = 240;  // multiple of every kernel's MR (6 and 12)
constexpr int64_t kKC = 320;
constexpr int64_t kNC = 1024;

constexpr int64_t kMaxMR = 16;
constexpr int64_t kMaxNR = 64;

// A micro-kernel computes acc[r*nr + c] = sum_p a[p*mr + r] * b[p*nr + c]
// over packed panels (acc is overwritten, never read). The accumulate into
// C and the epilogue happen in StoreTile.
using MicroKernelFn = void (*)(int64_t kc, const float* a, const float* b,
                               float* acc);

struct Kernel {
  int64_t mr, nr;
  MicroKernelFn fn;
  const char* name;
};

// Portable fallback: 6x16 accumulator block in plain C. The fixed trip
// counts let the compiler unroll and vectorize for whatever the build
// targets.
void MicroKernel6x16Scalar(int64_t kc, const float* a, const float* b,
                           float* acc) {
  float c[6 * 16];
  std::memset(c, 0, sizeof(c));
  for (int64_t p = 0; p < kc; ++p, a += 6, b += 16) {
    for (int r = 0; r < 6; ++r) {
      const float av = a[r];
      for (int j = 0; j < 16; ++j) c[r * 16 + j] += av * b[j];
    }
  }
  std::memcpy(acc, c, sizeof(c));
}

#ifdef POE_GEMM_X86

// 6x16 register tile: 12 fp32x8 accumulators + 2 B vectors + 1 broadcast
// fills 15 of the 16 ymm registers.
__attribute__((target("avx2,fma"))) void MicroKernel6x16Avx2(
    int64_t kc, const float* a, const float* b, float* acc) {
  __m256 c0[6], c1[6];
  for (int r = 0; r < 6; ++r) {
    c0[r] = _mm256_setzero_ps();
    c1[r] = _mm256_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p, a += 6, b += 16) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
#pragma GCC unroll 6
    for (int r = 0; r < 6; ++r) {
      const __m256 av = _mm256_set1_ps(a[r]);
      c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
    }
  }
  for (int r = 0; r < 6; ++r) {
    _mm256_storeu_ps(acc + r * 16, c0[r]);
    _mm256_storeu_ps(acc + r * 16 + 8, c1[r]);
  }
}

// 12x32 register tile: 24 fp32x16 accumulators + 2 B vectors + broadcasts
// fits the 32 zmm registers with room to spare.
__attribute__((target("avx512f"))) void MicroKernel12x32Avx512(
    int64_t kc, const float* a, const float* b, float* acc) {
  __m512 c0[12], c1[12];
  for (int r = 0; r < 12; ++r) {
    c0[r] = _mm512_setzero_ps();
    c1[r] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < kc; ++p, a += 12, b += 32) {
    const __m512 b0 = _mm512_loadu_ps(b);
    const __m512 b1 = _mm512_loadu_ps(b + 16);
#pragma GCC unroll 12
    for (int r = 0; r < 12; ++r) {
      const __m512 av = _mm512_set1_ps(a[r]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
  }
  for (int r = 0; r < 12; ++r) {
    _mm512_storeu_ps(acc + r * 32, c0[r]);
    _mm512_storeu_ps(acc + r * 32 + 16, c1[r]);
  }
}

#endif  // POE_GEMM_X86

const Kernel& PickKernel() {
  static const Kernel kernel = [] {
    // POE_GEMM_KERNEL=scalar|avx2|avx512 forces a variant (used by the
    // test suite to cover kernels the host wouldn't otherwise pick);
    // unsupported or unknown values fall back to auto-detection.
    const char* env = std::getenv("POE_GEMM_KERNEL");
    const std::string want = env ? env : "";
    const Kernel scalar{6, 16, MicroKernel6x16Scalar, "scalar"};
    if (want == "scalar") return scalar;
#ifdef POE_GEMM_X86
    const bool has_avx512 = __builtin_cpu_supports("avx512f");
    const bool has_avx2 =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    const Kernel avx512{12, 32, MicroKernel12x32Avx512, "avx512"};
    const Kernel avx2{6, 16, MicroKernel6x16Avx2, "avx2"};
    if (want == "avx512" && has_avx512) return avx512;
    if (want == "avx2" && has_avx2) return avx2;
    if (has_avx512) return avx512;
    if (has_avx2) return avx2;
#endif
    return scalar;
  }();
  return kernel;
}

// Applies the epilogue's bias and ReLU to the rows x cols region of C at
// (row0, col0).
void FinishTile(int64_t rows, int64_t cols, const GemmEpilogue& ep,
                int64_t row0, int64_t col0, float* c, int64_t ldc) {
  for (int64_t r = 0; r < rows; ++r) {
    float* crow = c + (row0 + r) * ldc + col0;
    const float rb = ep.row_bias ? ep.row_bias[row0 + r] : 0.0f;
    if (ep.col_bias != nullptr) {
      const float* cb = ep.col_bias + col0;
      for (int64_t j = 0; j < cols; ++j) crow[j] += rb + cb[j];
    } else if (ep.row_bias != nullptr) {
      for (int64_t j = 0; j < cols; ++j) crow[j] += rb;
    }
    if (ep.relu) {
      for (int64_t j = 0; j < cols; ++j) crow[j] = std::max(0.0f, crow[j]);
    }
  }
}

// Writes one micro-tile of the product into C: C = acc, or C += acc when
// `add` (a later k-block, or an accumulating product), over the valid rows
// x cols region, then FinishTile when `finish` (the final k-block of a
// product with a bias or ReLU).
void StoreTile(const float* acc, int64_t nr, int64_t rows, int64_t cols,
               bool add, bool finish, const GemmEpilogue& ep, int64_t row0,
               int64_t col0, float* c, int64_t ldc) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = acc + r * nr;
    float* crow = c + (row0 + r) * ldc + col0;
    if (add) {
      for (int64_t j = 0; j < cols; ++j) crow[j] += arow[j];
    } else {
      for (int64_t j = 0; j < cols; ++j) crow[j] = arow[j];
    }
  }
  if (finish) FinishTile(rows, cols, ep, row0, col0, c, ldc);
}

// The packed op(A) panels of rows [i0, i0+mc) x k-block [pc, pc+kc): the
// matching region of prepacked panels (see PackedAWeights::Pack for the
// layout), or `buf` after packing the raw matrix into it.
const float* PackABlock(const GemmA& a, int64_t i0, int64_t mc, int64_t pc,
                        int64_t kc, int64_t mr, float* buf) {
  if (a.panels != nullptr) {
    const int64_t m_pad = (a.m + mr - 1) / mr * mr;
    return a.panels + m_pad * pc + (i0 / mr) * kc * mr;
  }
  PackA(a.trans, a.data, a.m, a.k, i0, mc, pc, kc, mr, buf);
  return buf;
}

// The packed op(B) panels of k-block [pc, pc+kc) x columns [j0, j0+nc):
// the matching region of prepacked panels, or `buf` after packing the raw
// matrix or gathering the conv view's virtual im2col block into it.
const float* PackBBlock(const GemmB& b, int64_t pc, int64_t kc, int64_t j0,
                        int64_t nc, int64_t nr, float* buf) {
  if (b.panels != nullptr) {
    // Column tiles before j0 are all full (kNC wide, kNC a multiple of
    // nr), so they occupy exactly k * j0 floats.
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    return b.panels + b.k * j0 + nc_pad * pc;
  }
  if (b.conv.padded != nullptr) {
    PackBConv(b.conv, pc, kc, j0, nc, nr, buf);
  } else {
    PackB(b.trans, b.data, b.k, b.n, pc, kc, j0, nc, nr, buf);
  }
  return buf;
}

}  // namespace

GemmA GemmA::Raw(int64_t m, int64_t k, const float* a, bool trans) {
  GemmA d;
  d.m = m;
  d.k = k;
  d.data = a;
  d.trans = trans;
  return d;
}

GemmA GemmA::Packed(const PackedAWeights& a) {
  POE_CHECK(!a.empty()) << "Gemm on unpacked A weights";
  GemmA d;
  d.m = a.m_;
  d.k = a.k_;
  d.panels = a.data_.data();
  return d;
}

GemmB GemmB::Raw(int64_t k, int64_t n, const float* b, bool trans) {
  GemmB d;
  d.k = k;
  d.n = n;
  d.data = b;
  d.trans = trans;
  return d;
}

GemmB GemmB::Packed(const PackedBWeights& b) {
  POE_CHECK(!b.empty()) << "Gemm on unpacked B weights";
  GemmB d;
  d.k = b.k_;
  d.n = b.n_;
  d.panels = b.data_.data();
  return d;
}

GemmB GemmB::Conv(const ConvImageView& img) {
  if (img.is_matrix()) return Raw(img.depth(), img.cols(), img.padded);
  GemmB d;
  d.k = img.depth();
  d.n = img.cols();
  d.conv = img;
  return d;
}

// The one schedule: op(B) is packed once per (column stripe, k-block) and
// reused by every kMC row tile, whose op(A) block is packed next. When the
// product fans out, the NR-column micro-panels of each (k-block, row tile)
// region spread over the pool (sub-tile parallelism); each C micro-tile is
// still written by exactly one task, and k-blocks accumulate in ascending
// order behind the ParallelFor barrier, so the result is bitwise identical
// to the sequential run. No per-thread C scratch is needed.
void Gemm(const GemmA& a, const GemmB& b, float* c, const GemmEpilogue& ep,
          bool parallel) {
  POE_CHECK_EQ(a.k, b.k) << "Gemm operand depths differ";
  const int64_t m = a.m;
  const int64_t n = b.n;
  const int64_t k = a.k;
  POE_CHECK_GE(m, 0);
  POE_CHECK_GE(n, 0);
  POE_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  if (k == 0) {  // empty product: C = 0, or C kept when accumulating
    if (!ep.accumulate) std::fill(c, c + m * n, 0.0f);
    FinishTile(m, n, ep, 0, 0, c, n);
    return;
  }

  const Kernel& kernel = PickKernel();
  const int64_t mr = kernel.mr;
  const int64_t nr = kernel.nr;
  // Products below the fan-out threshold run inline (ShouldFanOut).
  const bool fan_out = parallel && ShouldFanOut(m * n * k);
  const int64_t kc_max = std::min(k, kKC);
  const int64_t a_pad_max =
      std::min(kMC, (std::min(kMC, m) + mr - 1) / mr * mr);
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    ScratchScope scope;
    float* a_buf = a.panels ? nullptr : scope.Alloc(a_pad_max * kc_max);
    float* b_buf = b.panels ? nullptr : scope.Alloc(kc_max * nc_pad);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const float* b_pack = PackBBlock(b, pc, kc, j0, nc, nr, b_buf);
      const bool add = pc > 0 || ep.accumulate;
      const bool finish =
          pc + kc >= k && (ep.row_bias || ep.col_bias || ep.relu);
      for (int64_t i0 = 0; i0 < m; i0 += kMC) {
        const int64_t mc = std::min(kMC, m - i0);
        const float* a_pack = PackABlock(a, i0, mc, pc, kc, mr, a_buf);
        const auto micro_panels = [&](int64_t jb0, int64_t jb1) {
          float acc[kMaxMR * kMaxNR];
          for (int64_t jb = jb0; jb < jb1; ++jb) {
            const int64_t jp = jb * nr;
            const float* bp = b_pack + jb * kc * nr;
            const int64_t cols = std::min(nr, nc - jp);
            for (int64_t ip = 0; ip < mc; ip += mr) {
              kernel.fn(kc, a_pack + (ip / mr) * kc * mr, bp, acc);
              StoreTile(acc, nr, std::min(mr, mc - ip), cols, add, finish,
                        ep, i0 + ip, j0 + jp, c, n);
            }
          }
        };
        const int64_t jp_blocks = (nc + nr - 1) / nr;
        if (fan_out && jp_blocks > 1) {
          ParallelFor(jp_blocks, micro_panels, /*min_chunk=*/1);
        } else {
          micro_panels(0, jp_blocks);
        }
      }
    }
  }
}

PackedAWeights PackedAWeights::Pack(int64_t m, int64_t k, const float* a) {
  POE_CHECK_GT(m, 0);
  POE_CHECK_GT(k, 0);
  const int64_t mr = PickKernel().mr;
  const int64_t m_pad = (m + mr - 1) / mr * mr;
  PackedAWeights packed;
  packed.m_ = m;
  packed.k_ = k;
  packed.data_.resize(static_cast<size_t>(m_pad * k));
  // Layout: ascending k-blocks of kKC, each holding ceil(m/mr) panels of
  // kc*mr floats — byte-identical to the per-call PackA of every
  // (row-tile, k-block) the blocked GEMM visits.
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    PackA(/*trans_a=*/false, a, m, k, /*i0=*/0, /*mc=*/m, pc, kc, mr,
          packed.data_.data() + m_pad * pc);
  }
  return packed;
}

PackedBWeights PackedBWeights::Pack(bool trans_b, int64_t k, int64_t n,
                                    const float* b) {
  POE_CHECK_GT(k, 0);
  POE_CHECK_GT(n, 0);
  const int64_t nr = PickKernel().nr;
  PackedBWeights packed;
  packed.k_ = k;
  packed.n_ = n;
  // Layout: per kNC column tile (all full tiles occupy exactly k * kNC
  // floats; kNC is a multiple of every kernel's NR), ascending k-blocks of
  // ceil(nc/nr) panels of kc*nr floats.
  int64_t total = 0;
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    total += k * ((nc + nr - 1) / nr * nr);
  }
  packed.data_.resize(static_cast<size_t>(total));
  for (int64_t j0 = 0; j0 < n; j0 += kNC) {
    const int64_t nc = std::min(kNC, n - j0);
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      PackB(trans_b, b, k, n, pc, kc, j0, nc, nr,
            packed.data_.data() + k * j0 + nc_pad * pc);
    }
  }
  return packed;
}

void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             const float* a, const float* b, float* c, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const float prior = accumulate ? c[i * n + j] : 0.0f;
      c[i * n + j] = static_cast<float>(acc) + prior;
    }
  }
}

int64_t GemmParallelTiles(int64_t m, int64_t n, int64_t k) {
  if (m <= 0 || n <= 0) return 0;
  if (!ShouldFanOut(m * n * k)) return 1;
  const int64_t nr = PickKernel().nr;
  return (std::min(n, kNC) + nr - 1) / nr;
}

const char* GemmKernelName() { return PickKernel().name; }

}  // namespace poe
