/**
 * @file
 * General matrix multiply with optional operand transposes.
 *
 * One entry point, two kernel families, chosen by shape:
 *
 *  - k*n >= 4096: a cache-blocked kernel (MC x KC x NC tiling) packs A
 *    and B into aligned micro-panels and drives a register-tiled
 *    micro-kernel (8 x 32 on AVX-512, 4 x 16 on AVX2 and portable
 *    builds), one fused multiply-add chain per element. Large shapes
 *    can fan row ranges out over a ThreadPool. This is the compute
 *    backbone of surrogate training and the batched Phase-2 driver.
 *  - k*n < 4096 (the MLP's skinny input/output layers): vectorized
 *    row x column tiles that keep, per element, the arithmetic of plain
 *    scalar loops (separate multiply and add, fixed p order).
 *
 * Each family is compiled portably and for AVX2+FMA and AVX-512; the
 * best variant the CPU supports is fixed at first use (gemmKernelName).
 *
 * Kernel choice depends only on (k, n) and the transposes, never on the
 * row count, and every row-count-dependent tiling choice is between
 * bitwise-equal paths: each row of a batched call gets bitwise the
 * arithmetic of the same row evaluated alone (the batched-vs-per-sample
 * surrogate equivalence the Phase-2 driver relies on). Threading
 * partitions C by disjoint row ranges, so results are bitwise identical
 * at any thread count.
 */
#pragma once

#include "tensor/matrix.hpp"

namespace mm {

class ThreadPool;

/**
 * C = alpha * op(A) * op(B) + beta * C.
 *
 * op(X) is X or X^T according to the transpose flags. C must already
 * have the result shape; shapes are checked. When @p pool is non-null,
 * large shapes are parallelized over disjoint row ranges of C (bitwise
 * deterministic at any lane count).
 */
void gemm(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, float beta, Matrix &c,
          ThreadPool *pool = nullptr);

/**
 * The kernel variant gemm() runs on this machine: "avx512", "avx2" or
 * "portable". Fixed for the life of the process.
 */
const char *gemmKernelName();

} // namespace mm
