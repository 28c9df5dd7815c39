// Raw-pointer GEMM kernels shared by ops::matmul* and the conv layers.
//
// The forward GEMM reads its right operand B[K,N] in *packed strips*: the
// columns are cut into strips of kStripWidth (16), and strip s stores its
// K rows back to back, 16 floats per row:
//
//   packed[s*K*16 + kk*16 + j] = B[kk, s*16 + j]      (0 <= j < 16)
//
// The last strip is zero-padded past column N-1. gemm packs a row-major B
// into this layout; im2col_packed (tensor/im2col.hpp) writes it directly
// from an image, so a convolution copies its input once.
//
// gemm_packed cuts C into (strip panel x row block) tiles and runs them on
// the global thread pool, so even a batch-1 conv with few output channels
// uses every lane. Each tile walks R x 16 register micro-tiles (R <= 6,
// AVX2/FMA when the CPU has it, scalar otherwise — picked once at
// runtime); the padded last strip goes through the same micro-kernel with
// a masked store.
//
// Arithmetic contract (DESIGN.md §7): on the AVX2/FMA path every C element
// starts at 0 and takes exactly one fused multiply-add per k, in index
// order 0..K-1 — the result equals a scalar std::fma loop bit for bit, for
// every column, every tile partition and every thread count. The scalar
// fallback keeps the same order with a separate multiply and add.
//
// All matrices are dense row-major with packed leading dimensions.
#pragma once

#include <cstdint>

namespace mtlsplit::ops::detail {

/// Columns per packed strip of the right GEMM operand.
inline constexpr int64_t kStripWidth = 16;

/// Floats in the packed-strip copy of a [K, N] matrix (N rounded up to a
/// whole strip).
inline int64_t packed_size(int64_t k, int64_t n) {
  return k * ((n + kStripWidth - 1) / kStripWidth * kStripWidth);
}

/// C[M,N] = A[M,K] * B, with B in packed strips. C is overwritten.
void gemm_packed(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b_packed, float* c);

/// C[M,N] = A[M,K] * B[K,N] for row-major B: packs B into strips in the
/// calling thread's Workspace::kGemmPack slot, then gemm_packed. C is
/// overwritten.
void gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c);

/// C[M,K] = A[M,N] * B[K,N]^T — every C element is a dot product of two
/// contiguous rows, accumulated in double (matches the seed backward-GEMM
/// numerics). C is overwritten.
void gemm_nt(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
             float* c);

/// dst[cols, rows] = src[rows, cols]^T (blocked transpose).
void transpose(const float* src, int64_t rows, int64_t cols, float* dst);

}  // namespace mtlsplit::ops::detail
