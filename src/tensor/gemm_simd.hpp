/**
 * @file
 * Internal to src/tensor: the GNU-vector helpers and ISA-variant macros
 * shared by the blocked GEMM (gemm.cpp) and the skinny-shape kernels
 * (gemm_skinny.cpp). Not part of the public tensor API.
 *
 * Every kernel is written once over a GNU vector type and compiled
 * portably and, on x86-64 Linux with GCC/Clang, additionally for
 * AVX2+FMA and AVX-512. The best variant the CPU supports is picked
 * once at first use; per machine the choice is fixed, so the
 * determinism guarantees (batch-size and thread-count independence)
 * are unaffected. Define MM_GEMM_NO_MULTIVERSION to force the portable
 * path.
 */
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

#if !defined(__GNUC__)
#error "the GEMM kernels need GNU vector extensions (GCC or Clang)"
#endif

#if defined(__x86_64__) && defined(__gnu_linux__)                         \
    && !defined(MM_GEMM_NO_MULTIVERSION) && !defined(__AVX512F__)
#define MM_GEMM_MULTIVERSION 1
#else
#define MM_GEMM_MULTIVERSION 0
#endif

#define MM_GEMM_INLINE inline __attribute__((always_inline))
#define MM_GEMM_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define MM_GEMM_TARGET_AVX512                                             \
    __attribute__((target("avx512f,avx512vl,avx2,fma")))

namespace mm::gemm_detail {

using Vec4f = float __attribute__((vector_size(16)));
using Vec8f = float __attribute__((vector_size(32)));
using Vec16f = float __attribute__((vector_size(64)));

template <typename V>
inline constexpr size_t kLanes = sizeof(V) / sizeof(float);

template <typename V>
MM_GEMM_INLINE V
loadv(const float *p)
{
    V v;
    __builtin_memcpy(&v, p, sizeof(v));
    return v;
}

template <typename V>
MM_GEMM_INLINE void
storev(float *p, V v)
{
    __builtin_memcpy(p, &v, sizeof(v));
}

/**
 * The first @p cols floats of @p src as NV vectors, zero past cols.
 * Only a vector that straddles cols goes through a scratch copy.
 */
template <typename V, size_t NV>
MM_GEMM_INLINE void
loadCols(const float *src, size_t cols, V out[NV])
{
    constexpr size_t W = kLanes<V>;
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
        if ((v + 1) * W <= cols) {
            out[v] = loadv<V>(src + v * W);
            continue;
        }
        alignas(kMatrixAlignment) float tmp[W] = {};
        for (size_t j = v * W; j < cols; ++j)
            tmp[j - v * W] = src[j];
        out[v] = loadv<V>(tmp);
    }
}

/** Store the first @p cols lanes of NV vectors to @p dst. */
template <typename V, size_t NV>
MM_GEMM_INLINE void
storeCols(float *dst, size_t cols, const V in[NV])
{
    constexpr size_t W = kLanes<V>;
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
        if ((v + 1) * W <= cols) {
            storev(dst + v * W, in[v]);
            continue;
        }
        alignas(kMatrixAlignment) float tmp[W];
        storev(tmp, in[v]);
        for (size_t j = v * W; j < cols; ++j)
            dst[j] = tmp[j - v * W];
    }
}

/**
 * dst[p * ldd + j] = src[j * lds + p] for j < rows, p < cols: the
 * transposing copy both kernel families pack op(B) = B^T with. Sixteen
 * source rows are read side by side so every store run is contiguous
 * (a row-at-a-time copy strides its stores and stalls on them).
 */
MM_GEMM_INLINE void
transposeCopy(const float *src, size_t lds, size_t rows, size_t cols,
              float *dst, size_t ldd)
{
    size_t j0 = 0;
    for (; j0 + 16 <= rows; j0 += 16) {
        const float *block = src + j0 * lds;
        for (size_t p = 0; p < cols; ++p) {
            float *d = dst + p * ldd + j0;
#pragma GCC unroll 16
            for (size_t t = 0; t < 16; ++t)
                d[t] = block[t * lds + p];
        }
    }
    if (j0 == rows)
        return;
    const float *block = src + j0 * lds;
    for (size_t p = 0; p < cols; ++p)
        for (size_t t = 0; t < rows - j0; ++t)
            dst[p * ldd + j0 + t] = block[t * lds + p];
}

/**
 * Room for at least @p n floats in a packing buffer. Grows only: the
 * layers of one MLP pass alternate between shapes, and shrinking and
 * regrowing a vector zero-fills the regrown part on every call.
 */
inline float *
packScratch(AlignedFloatBuffer &buf, size_t n)
{
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

/** The instruction sets a kernel variant is compiled for. */
enum class GemmIsa { Portable, Avx2, Avx512 };

/**
 * C += alpha * op(A) * op(B) for k*n below the blocked threshold, with
 * beta already applied. Per element this is exactly the scalar loop
 * nest (see gemm_skinny.cpp), so the result is bitwise independent of
 * the ISA variant and of the row count. @p panel is op(B)'s panel as
 * packSkinnyB builds it for @p isa, or nullptr to pack it per call.
 */
void skinnyGemm(GemmIsa isa, bool transA, bool transB, float alpha,
                const Matrix &a, const Matrix &b, const float *panel,
                Matrix &c);

/**
 * The op(B) panel skinnyGemm of variant @p isa would pack for @p b on
 * every call, into @p out (resized to fit).
 */
void packSkinnyB(GemmIsa isa, bool transB, const Matrix &b,
                 AlignedFloatBuffer &out);

} // namespace mm::gemm_detail
