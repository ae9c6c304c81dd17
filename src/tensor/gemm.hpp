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
 *
 * A B operand that does not change between calls (a frozen network's
 * weights) can be laid out once as a PackedB: exactly the panels the
 * dispatched family would otherwise build on every call. gemm() then
 * reads them instead of packing, through the same micro-kernels, so
 * the result is bitwise the one of the unpacked call.
 */
#pragma once

#include "tensor/matrix.hpp"

namespace mm {

class ThreadPool;

/**
 * op(B) pre-packed for gemm(): an immutable snapshot of @p b's values in
 * the panel layout of the kernel family gemm() dispatches its (k, n) to
 * on this machine.
 *
 *  - k*n >= 4096 (blocked family): the NR-column micro-panels of every
 *    KC x NC block of op(B); block (jc, pc) starts at jc * k + pc * nPad
 *    floats, nPad being the block's width rounded up to NR.
 *  - k*n < 4096 (skinny family): the zero-padded B^T panel of the dot
 *    form (transB), or the update form's panel of the columns past the
 *    last full vector chunk (the others are read from B in place).
 *
 * The pack does not track @p b: after b changes it must be rebuilt (or
 * dropped) by its owner.
 */
class PackedB
{
  public:
    PackedB(const Matrix &b, bool transB);

    bool transposed() const { return transB_; }
    size_t depth() const { return k_; } ///< rows of op(B)
    size_t width() const { return n_; } ///< columns of op(B)
    /** The packed panels; layout as described above. */
    const float *data() const { return buf.data(); }

  private:
    size_t k_, n_;
    bool transB_;
    AlignedFloatBuffer buf;
};

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
 * gemm() reading op(B)'s panels from @p packedB instead of packing them
 * (nullptr: pack per call, as the overload above). @p packedB must have
 * been built from @p b with the same transB and still hold b's values;
 * the shape and transpose are checked. Bitwise equal to the unpacked
 * call.
 */
void gemm(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, const PackedB *packedB, float beta, Matrix &c,
          ThreadPool *pool = nullptr);

/**
 * The kernel variant gemm() runs on this machine: "avx512", "avx2" or
 * "portable". Fixed for the life of the process.
 */
const char *gemmKernelName();

} // namespace mm
