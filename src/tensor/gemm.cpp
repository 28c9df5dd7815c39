#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MTLSPLIT_X86 1
#endif

namespace mtlsplit::ops::detail {

namespace {

// Tile shape for gemm_packed: strips per column panel and rows per row
// block. Fixed (never derived from the thread count) so scheduling is
// reproducible; values do not depend on the tiling at all, since every C
// element gets the same instruction stream in any tile.
constexpr int64_t kPanelStrips = 8;
constexpr int64_t kRowBlock = 12;

// Rows per register micro-tile: 6 x 16 floats is 12 ymm accumulators plus
// two B rows and one broadcast, within the 16 ymm registers.
constexpr int kMaxRows = 6;

/// Height of the next micro-tile when @p left rows remain. A remainder of 7
/// or 8 rows is split as 4 + 3 / 4 + 4 rather than 6 + 1 / 6 + 2: tiles of
/// one or two rows have too few independent FMA chains to hide latency.
int64_t micro_rows(int64_t left) {
  return (left == 7 || left == 8) ? 4 : std::min<int64_t>(left, kMaxRows);
}

/// C[R, cols] = A[R, K] * one packed strip. @p lda / @p ldc are the row
/// strides of A and C; @p cols (1..16) is how many strip columns exist.
using MicroFn = void (*)(int64_t k, const float* a, int64_t lda,
                         const float* strip, float* c, int64_t ldc,
                         int64_t cols);

// ------------------------------------------------------------- scalar path
//
// Same per-element order as the AVX2 path (k = 0..K-1 from zero), with a
// separate multiply and add.

template <int R>
void micro_scalar(int64_t k, const float* a, int64_t lda, const float* strip,
                  float* c, int64_t ldc, int64_t cols) {
  float acc[R][kStripWidth] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = strip + kk * kStripWidth;
    for (int r = 0; r < R; ++r) {
      const float av = a[r * lda + kk];
      for (int64_t j = 0; j < kStripWidth; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < R; ++r)
    std::memcpy(c + r * ldc, acc[r], static_cast<size_t>(cols) * sizeof(float));
}

#ifdef MTLSPLIT_X86

// --------------------------------------------------------------- AVX2 path
//
// R x 16 register micro-tile: 2R FMA accumulators, 2 strip loads and R
// broadcasts per k step. R is a template argument and every loop over it is
// force-unrolled: otherwise GCC turns the zeroing loop into a memset and
// keeps the accumulators on the stack, storing them every k step.

template <int R>
__attribute__((target("avx2,fma"))) void micro_avx2(
    int64_t k, const float* a, int64_t lda, const float* strip, float* c,
    int64_t ldc, int64_t cols) {
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(strip + kk * kStripWidth);
    const __m256 b1 = _mm256_loadu_ps(strip + kk * kStripWidth + 8);
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + kk);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  if (cols == kStripWidth) {
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + r * ldc, acc0[r]);
      _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
    }
    return;
  }
  // Padded last strip: store only the columns C has.
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i m0 =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)), iota);
  const __m256i m1 =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols) - 8), iota);
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
    _mm256_maskstore_ps(c + r * ldc, m0, acc0[r]);
    if (cols > 8) _mm256_maskstore_ps(c + r * ldc + 8, m1, acc1[r]);
  }
}

#endif  // MTLSPLIT_X86

/// Micro-kernels indexed by row count (entry 0 unused).
struct Kernel {
  MicroFn rows[kMaxRows + 1];
};

const Kernel& pick_kernel() {
  static const Kernel scalar{{nullptr, micro_scalar<1>, micro_scalar<2>,
                              micro_scalar<3>, micro_scalar<4>,
                              micro_scalar<5>, micro_scalar<6>}};
#ifdef MTLSPLIT_X86
  static const Kernel avx2{{nullptr, micro_avx2<1>, micro_avx2<2>,
                            micro_avx2<3>, micro_avx2<4>, micro_avx2<5>,
                            micro_avx2<6>}};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return avx2;
#endif
  return scalar;
}

/// Writes row-major B[K,N] into packed strips (packed_size(k, n) floats,
/// padding zeroed).
void pack_b(int64_t k, int64_t n, const float* b, float* packed) {
  // Blocks of 16 rows: each strip receives the block as one contiguous 1 KB
  // run, while the reads walk 16 rows of B in step.
  constexpr int64_t kRows = 16;
  for (int64_t k0 = 0; k0 < k; k0 += kRows) {
    const int64_t k1 = std::min(k0 + kRows, k);
    for (int64_t j0 = 0; j0 < n; j0 += kStripWidth) {
      const int64_t cols = std::min(kStripWidth, n - j0);
      float* dst = packed + j0 * k + k0 * kStripWidth;
      for (int64_t kk = k0; kk < k1; ++kk, dst += kStripWidth) {
        const float* src = b + kk * n + j0;
        if (cols == kStripWidth) {
          std::memcpy(dst, src, kStripWidth * sizeof(float));
        } else {
          std::memcpy(dst, src, static_cast<size_t>(cols) * sizeof(float));
          std::fill(dst + cols, dst + kStripWidth, 0.0f);
        }
      }
    }
  }
}

}  // namespace

void gemm_packed(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b_packed, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  static const Kernel& kernel = pick_kernel();
  const int64_t strips = (n + kStripWidth - 1) / kStripWidth;
  const int64_t panels = (strips + kPanelStrips - 1) / kPanelStrips;
  const int64_t row_blocks = (m + kRowBlock - 1) / kRowBlock;
  runtime::parallel_for(0, panels * row_blocks, 1, [&](int64_t tb, int64_t te) {
    for (int64_t t = tb; t < te; ++t) {
      const int64_t r0 = (t % row_blocks) * kRowBlock;
      const int64_t r1 = std::min(r0 + kRowBlock, m);
      // Strips are dealt evenly over the panels (9 strips -> 4 + 5, not
      // 8 + 1) so small-N layers split into equal tiles.
      const int64_t p = t / row_blocks;
      const int64_t s0 = p * strips / panels, s1 = (p + 1) * strips / panels;
      // Row-outer: the micro-tile's A rows stay in L1 while the panel's
      // strips stream past them.
      for (int64_t i = r0; i < r1;) {
        const int64_t rows = micro_rows(r1 - i);
        for (int64_t s = s0; s < s1; ++s) {
          const float* strip = b_packed + s * k * kStripWidth;
          const int64_t j0 = s * kStripWidth;
          const int64_t cols = std::min(kStripWidth, n - j0);
          kernel.rows[rows](k, a + i * k, k, strip, c + i * n + j0, n, cols);
        }
        i += rows;
      }
    }
  });
}

void gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c) {
  if (m <= 0 || n <= 0) return;
  // Own slot: callers such as matmul_tn hold kGemmOperand across this call.
  float* packed = runtime::tls_workspace().floats(
      runtime::Workspace::kGemmPack, packed_size(k, n));
  pack_b(k, n, b, packed);
  gemm_packed(m, n, k, a, packed, c);
}

void gemm_nt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c) {
  if (m <= 0 || k <= 0) return;
  runtime::parallel_for(0, m, 16, [&](int64_t rb, int64_t re) {
    for (int64_t i = rb; i < re; ++i) {
      const float* arow = a + i * n;
      float* crow = c + i * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n;
        double acc = 0.0;
        for (int64_t j = 0; j < n; ++j)
          acc += static_cast<double>(arow[j]) * brow[j];
        crow[kk] = static_cast<float>(acc);
      }
    }
  });
}

void transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  constexpr int64_t kTile = 32;
  runtime::parallel_for(0, rows, kTile, [&](int64_t rb, int64_t re) {
    for (int64_t jb = 0; jb < cols; jb += kTile) {
      const int64_t je = std::min(jb + kTile, cols);
      for (int64_t i = rb; i < re; ++i)
        for (int64_t j = jb; j < je; ++j)
          dst[j * rows + i] = src[i * cols + j];
    }
  });
}

}  // namespace mtlsplit::ops::detail
