/**
 * @file
 * GEMM test oracles, kept out of the library: tests and benches link
 * them through the mm_test_support target.
 *
 * Built with -ffp-contract=off (see CMakeLists.txt), so gemmNaive's
 * multiply-adds stay separately rounded even under -march=native and
 * the bitwise pins against the skinny kernels hold in every build.
 */
#pragma once

#include "tensor/matrix.hpp"

namespace mm {

/**
 * C = alpha * op(A) * op(B) + beta * C through plain scalar loop nests
 * (contiguous-innermost orders, no packing, no threading). The bitwise
 * oracle of the skinny kernels and the baseline the blocked kernel is
 * measured against:
 *
 *  - NN/TN: c += (alpha * a_ip) * b_pj for p = 0..k-1;
 *  - NT/TT: acc = sum_p a_ip * b_jp (from 0, in p order); c += alpha * acc.
 */
void gemmNaive(bool transA, bool transB, float alpha, const Matrix &a,
               const Matrix &b, float beta, Matrix &c);

/** Triple-loop reference with fp64 accumulation (tolerance oracle). */
void gemmReference(bool transA, bool transB, float alpha, const Matrix &a,
                   const Matrix &b, float beta, Matrix &c);

} // namespace mm
