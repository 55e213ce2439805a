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
// over packed panels (acc is overwritten, never read). Scaling by alpha,
// the beta-accumulate into C, and the epilogue all happen in StoreTile.
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

// Writes one micro-tile of the product into C: C = blk_beta*C + alpha*acc
// over the valid rows x cols region, plus the fused epilogue when this is
// the final k-block.
void StoreTile(const float* acc, int64_t nr, int64_t rows, int64_t cols,
               float alpha, float blk_beta, bool apply_epilogue,
               const GemmEpilogue& ep, int64_t row0, int64_t col0, float* c,
               int64_t ldc) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = acc + r * nr;
    float* crow = c + (row0 + r) * ldc + col0;
    if (blk_beta == 0.0f) {
      for (int64_t j = 0; j < cols; ++j) crow[j] = alpha * arow[j];
    } else if (blk_beta == 1.0f) {
      for (int64_t j = 0; j < cols; ++j) crow[j] += alpha * arow[j];
    } else {
      for (int64_t j = 0; j < cols; ++j)
        crow[j] = blk_beta * crow[j] + alpha * arow[j];
    }
  }
  if (!apply_epilogue) return;
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

// Offsets into the persistent packed buffers (see PackedAWeights /
// PackedBWeights::Pack below for the layouts). Both layouts place the
// panels of each (tile, k-block) region exactly as the per-call pack
// writes them, so the micro-kernel loops are oblivious to the source.
inline const float* PrepackedABlock(const float* packed, int64_t m,
                                    int64_t mr, int64_t i0, int64_t pc,
                                    int64_t kc) {
  const int64_t m_pad = (m + mr - 1) / mr * mr;
  return packed + m_pad * pc + (i0 / mr) * kc * mr;
}

inline const float* PrepackedBBlock(const float* packed, int64_t k,
                                    int64_t n, int64_t nr, int64_t j0,
                                    int64_t pc, int64_t kc) {
  const int64_t nc = std::min(kNC, n - j0);
  const int64_t nc_pad = (nc + nr - 1) / nr * nr;
  // Column tiles before j0 are all full (kNC wide, kNC a multiple of nr),
  // so they occupy exactly k * j0 floats.
  return packed + k * j0 + nc_pad * pc;
}

// Computes the C macro-tile [i0, i0+mc) x [j0, j0+nc): packs A/B blocks
// into this thread's scratch arena (or indexes the persistent prepacked
// panels when `prepacked_a` / `prepacked_b` are given) and runs the
// micro-kernel over the register-tile grid. One task owns each C tile and
// accumulates k-blocks in a fixed order, so results are identical under
// any thread schedule — and, because prepacked panels are byte-identical
// to per-call packs, across the plain and prepacked entry points.
void ComputeTile(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, const float* b, float beta,
                 float* c, const GemmEpilogue& ep, const Kernel& kernel,
                 const float* prepacked_a, const float* prepacked_b,
                 const ConvImageView* conv_img, int64_t i0, int64_t mc,
                 int64_t j0, int64_t nc) {
  const int64_t mr = kernel.mr;
  const int64_t nr = kernel.nr;
  const int64_t mc_pad = (mc + mr - 1) / mr * mr;
  const int64_t nc_pad = (nc + nr - 1) / nr * nr;
  const int64_t kc_max = std::min(k, kKC);

  ScratchScope scope;
  float* a_buf = prepacked_a ? nullptr : scope.Alloc(mc_pad * kc_max);
  float* b_buf = prepacked_b ? nullptr : scope.Alloc(kc_max * nc_pad);
  float acc[kMaxMR * kMaxNR];

  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const float* a_pack;
    if (prepacked_a != nullptr) {
      a_pack = PrepackedABlock(prepacked_a, m, mr, i0, pc, kc);
    } else {
      PackA(trans_a, a, m, k, i0, mc, pc, kc, mr, a_buf);
      a_pack = a_buf;
    }
    const float* b_pack;
    if (prepacked_b != nullptr) {
      b_pack = PrepackedBBlock(prepacked_b, k, n, nr, j0, pc, kc);
    } else if (conv_img != nullptr) {
      PackBConv(*conv_img, pc, kc, j0, nc, nr, b_buf);
      b_pack = b_buf;
    } else {
      PackB(trans_b, b, k, n, pc, kc, j0, nc, nr, b_buf);
      b_pack = b_buf;
    }
    const float blk_beta = (pc == 0) ? beta : 1.0f;
    const bool last = pc + kc >= k;
    for (int64_t jp = 0; jp < nc; jp += nr) {
      const float* bp = b_pack + (jp / nr) * kc * nr;
      const int64_t cols = std::min(nr, nc - jp);
      for (int64_t ip = 0; ip < mc; ip += mr) {
        kernel.fn(kc, a_pack + (ip / mr) * kc * mr, bp, acc);
        StoreTile(acc, nr, std::min(mr, mc - ip), cols, alpha, blk_beta,
                  last && !ep.empty(), ep, i0 + ip, j0 + jp, c, n);
      }
    }
  }
}

// Degenerate k == 0 product: C = beta*C plus the epilogue.
void ScaleOnly(int64_t m, int64_t n, float beta, float* c,
               const GemmEpilogue& ep) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float rb = ep.row_bias ? ep.row_bias[i] : 0.0f;
    if (ep.row_bias || ep.col_bias) {
      for (int64_t j = 0; j < n; ++j)
        crow[j] += rb + (ep.col_bias ? ep.col_bias[j] : 0.0f);
    }
    if (ep.relu) {
      for (int64_t j = 0; j < n; ++j) crow[j] = std::max(0.0f, crow[j]);
    }
  }
}

void GemmExImpl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                float alpha, const float* a, const float* b, float beta,
                float* c, const GemmEpilogue& ep, bool parallel,
                const float* prepacked_a, const float* prepacked_b,
                const ConvImageView* conv_img) {
  POE_CHECK_GE(m, 0);
  POE_CHECK_GE(n, 0);
  POE_CHECK_GE(k, 0);
  if (m == 0 || n == 0) return;
  // A 1x1, pad-0, stride-1 view is its own B matrix: pack it as one.
  if (conv_img != nullptr && conv_img->is_matrix()) conv_img = nullptr;
  if (k == 0 || alpha == 0.0f) {
    ScaleOnly(m, n, beta, c, ep);
    return;
  }

  const Kernel& kernel = PickKernel();
  const int64_t row_tiles = (m + kMC - 1) / kMC;
  const int64_t col_tiles = (n + kNC - 1) / kNC;
  // Products below the fan-out threshold run inline (ShouldFanOut). Fanned
  // out, macro-tile parallelism applies only when there are enough tiles
  // to feed the pool; smaller products use sub-tile parallelism inside the
  // hoisted path below (run inline, the per-tile path would only repack B
  // k-blocks row_tiles times over).
  const int64_t workers =
      parallel && ShouldFanOut(m * n * k) ? NumThreads() : 1;
  if (workers > 1 && row_tiles * col_tiles >= workers) {
    ParallelFor2D(row_tiles, col_tiles, [&](int64_t rt, int64_t ct) {
      const int64_t i0 = rt * kMC;
      const int64_t j0 = ct * kNC;
      ComputeTile(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, ep,
                  kernel, prepacked_a, prepacked_b, conv_img, i0,
                  std::min(kMC, m - i0), j0, std::min(kNC, n - j0));
    });
    return;
  }

  // Hoisted path: op(B) packing is hoisted out of the row-macro-tile
  // loop — each B k-block is packed once per column stripe and reused by
  // every row tile, instead of being repacked ceil(m/MC) times. Per-element
  // k-accumulation order is unchanged (ascending k-blocks), so the result
  // stays bitwise identical to the parallel per-tile path.
  //
  // When the pool has workers but the product is under-tiled (fewer macro
  // tiles than workers — the realtime batch-1 conv shapes), the NR-column
  // micro-panels of each (k-block, row-tile) region are distributed over
  // the pool instead (sub-tile ir/jr parallelism). Each C micro-tile is
  // still written by exactly one task and k-blocks still accumulate in
  // ascending order behind a ParallelFor barrier, so the result remains
  // bitwise identical to the sequential schedule — no per-thread C scratch
  // is needed.
  const bool subtile = workers > 1;
  const int64_t mr = kernel.mr;
  const int64_t nr = kernel.nr;
  const int64_t kc_max = std::min(k, kKC);
  const int64_t a_pad_max =
      std::min(kMC, (std::min(kMC, m) + mr - 1) / mr * mr);
  for (int64_t ct = 0; ct < col_tiles; ++ct) {
    const int64_t j0 = ct * kNC;
    const int64_t nc = std::min(kNC, n - j0);
    const int64_t nc_pad = (nc + nr - 1) / nr * nr;
    ScratchScope scope;
    float* a_buf = prepacked_a ? nullptr : scope.Alloc(a_pad_max * kc_max);
    float* b_buf = prepacked_b ? nullptr : scope.Alloc(kc_max * nc_pad);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const float* b_pack;
      if (prepacked_b != nullptr) {
        b_pack = PrepackedBBlock(prepacked_b, k, n, nr, j0, pc, kc);
      } else if (conv_img != nullptr) {
        PackBConv(*conv_img, pc, kc, j0, nc, nr, b_buf);
        b_pack = b_buf;
      } else {
        PackB(trans_b, b, k, n, pc, kc, j0, nc, nr, b_buf);
        b_pack = b_buf;
      }
      const float blk_beta = (pc == 0) ? beta : 1.0f;
      const bool last = pc + kc >= k;
      for (int64_t rt = 0; rt < row_tiles; ++rt) {
        const int64_t i0 = rt * kMC;
        const int64_t mc = std::min(kMC, m - i0);
        const float* a_pack;
        if (prepacked_a != nullptr) {
          a_pack = PrepackedABlock(prepacked_a, m, mr, i0, pc, kc);
        } else {
          PackA(trans_a, a, m, k, i0, mc, pc, kc, mr, a_buf);
          a_pack = a_buf;
        }
        const auto micro_panels = [&](int64_t jb0, int64_t jb1) {
          float acc[kMaxMR * kMaxNR];
          for (int64_t jb = jb0; jb < jb1; ++jb) {
            const int64_t jp = jb * nr;
            const float* bp = b_pack + jb * kc * nr;
            const int64_t cols = std::min(nr, nc - jp);
            for (int64_t ip = 0; ip < mc; ip += mr) {
              kernel.fn(kc, a_pack + (ip / mr) * kc * mr, bp, acc);
              StoreTile(acc, nr, std::min(mr, mc - ip), cols, alpha,
                        blk_beta, last && !ep.empty(), ep, i0 + ip, j0 + jp,
                        c, n);
            }
          }
        };
        const int64_t jp_blocks = (nc + nr - 1) / nr;
        if (subtile && jp_blocks > 1) {
          ParallelFor(jp_blocks, micro_panels, /*min_chunk=*/1);
        } else {
          micro_panels(0, jp_blocks);
        }
      }
    }
  }
}

}  // namespace

void GemmEx(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
            float alpha, const float* a, const float* b, float beta, float* c,
            const GemmEpilogue& ep, bool parallel) {
  GemmExImpl(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, ep, parallel,
             /*prepacked_a=*/nullptr, /*prepacked_b=*/nullptr,
             /*conv_img=*/nullptr);
}

void GemmConvEx(int64_t m, const float* a, const ConvImageView& img,
                float alpha, float beta, float* c, const GemmEpilogue& ep,
                bool parallel) {
  GemmExImpl(/*trans_a=*/false, /*trans_b=*/false, m, img.cols(),
             img.depth(), alpha, a, /*b=*/img.padded, beta, c, ep, parallel,
             /*prepacked_a=*/nullptr, /*prepacked_b=*/nullptr, &img);
}

PackedAWeights PackedAWeights::Pack(bool trans_a, int64_t m, int64_t k,
                                    const float* a) {
  POE_CHECK_GT(m, 0);
  POE_CHECK_GT(k, 0);
  const Kernel& kernel = PickKernel();
  const int64_t mr = kernel.mr;
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
    PackA(trans_a, a, m, k, /*i0=*/0, /*mc=*/m, pc, kc, mr,
          packed.data_.data() + m_pad * pc);
  }
  return packed;
}

PackedBWeights PackedBWeights::Pack(bool trans_b, int64_t k, int64_t n,
                                    const float* b) {
  POE_CHECK_GT(k, 0);
  POE_CHECK_GT(n, 0);
  const Kernel& kernel = PickKernel();
  const int64_t nr = kernel.nr;
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

void GemmConvPackedA(const PackedAWeights& a, const ConvImageView& img,
                     float alpha, float beta, float* c, const GemmEpilogue& ep,
                     bool parallel) {
  POE_CHECK(!a.empty()) << "GemmConvPackedA on unpacked weights";
  POE_CHECK_EQ(a.k_, img.depth());
  GemmExImpl(/*trans_a=*/false, /*trans_b=*/false, a.m_, img.cols(), a.k_,
             alpha, /*a=*/nullptr, /*b=*/img.padded, beta, c, ep, parallel,
             a.data_.data(), /*prepacked_b=*/nullptr, &img);
}

void GemmPackedB(int64_t m, const float* a, bool trans_a,
                 const PackedBWeights& b, float alpha, float beta, float* c,
                 const GemmEpilogue& ep, bool parallel) {
  POE_CHECK(!b.empty()) << "GemmPackedB on unpacked weights";
  GemmExImpl(trans_a, /*trans_b=*/false, m, b.n_, b.k_, alpha, a,
             /*b=*/nullptr, beta, c, ep, parallel,
             /*prepacked_a=*/nullptr, b.data_.data(), /*conv_img=*/nullptr);
}

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  GemmEx(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, GemmEpilogue{},
         /*parallel=*/true);
}

void GemmRef(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const float prior = beta == 0.0f ? 0.0f : beta * c[i * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + prior;
    }
  }
}

int64_t GemmParallelTiles(int64_t m, int64_t n, int64_t k) {
  if (m <= 0 || n <= 0) return 0;
  if (!ShouldFanOut(m * n * k)) return 1;
  // Under-tiled products distribute the NR-column micro-panels of one
  // column stripe instead (sub-tile parallelism in GemmExImpl).
  const int64_t tiles = ((m + kMC - 1) / kMC) * ((n + kNC - 1) / kNC);
  const int64_t nr = PickKernel().nr;
  return std::max(tiles, (std::min(n, kNC) + nr - 1) / nr);
}

const char* GemmKernelName() { return PickKernel().name; }

}  // namespace poe
