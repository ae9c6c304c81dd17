/**
 * @file
 * Vectorized kernels for the GEMM shapes below the blocked threshold
 * (k*n < 4096): the surrogate MLP's skinny input and output layers and
 * their gradients, at any batch size.
 *
 * Per output element each kernel keeps the exact arithmetic of the
 * scalar loop nest it replaced (kept as the test oracle gemmNaive):
 *
 *  - update form (op(B) = B, NN/TN): c += (alpha * a_ip) * b_pj for
 *    p = 0..k-1, accumulated into C itself;
 *  - dot form (op(B) = B^T, NT/TT): acc = 0; acc += a_ip * b_jp for
 *    p = 0..k-1; then c += alpha * acc.
 *
 * Every multiply and add is rounded on its own: this file is compiled
 * with -ffp-contract=off, so no variant fuses them into an FMA. Vectors
 * run across output columns, R rows at a time. Which tile covers an
 * element changes nothing about its arithmetic, so results are bitwise
 * the same at any row count and for every ISA variant.
 */
#include <algorithm>

#include "tensor/gemm_simd.hpp"

namespace mm::gemm_detail {

namespace {

/** Column vectors per tile row. */
constexpr size_t CV = 2;

/** Per-thread packing scratch; reused across calls, never shared. */
struct SkinnyBuffers
{
    AlignedFloatBuffer a;
    AlignedFloatBuffer b;
};

SkinnyBuffers &
skinnyBuffers()
{
    static thread_local SkinnyBuffers bufs;
    return bufs;
}

/**
 * One R x (NV * lanes) tile of C at @p cp, of which @p cols columns are
 * live. @p ap holds the tile's A values packed [p][r] with row stride
 * AS (alpha * a_ip in the update form, a_ip in the dot form); row p of
 * the B panel starts at bp + p * ldb and is readable across the full
 * tile width.
 */
template <size_t R, size_t AS, typename V, size_t NV, bool Dot>
MM_GEMM_INLINE void
tile(size_t k, const float *ap, const float *bp, size_t ldb, float alpha,
     float *cp, size_t ldc, size_t cols)
{
    constexpr size_t W = kLanes<V>;
    V acc[R][NV];
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
        if constexpr (Dot) {
#pragma GCC unroll 4
            for (size_t v = 0; v < NV; ++v)
                acc[r][v] = V{};
        } else {
            loadCols<V, NV>(cp + r * ldc, cols, acc[r]);
        }
    }
    for (size_t p = 0; p < k; ++p) {
        V bv[NV];
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v)
            bv[v] = loadv<V>(bp + p * ldb + v * W);
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r) {
            // Scalar-times-vector broadcasts the scalar exactly.
            const float av = ap[p * AS + r];
#pragma GCC unroll 4
            for (size_t v = 0; v < NV; ++v)
                acc[r][v] += av * bv[v];
        }
    }
    if constexpr (Dot) {
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r) {
            V cv[NV];
            loadCols<V, NV>(cp + r * ldc, cols, cv);
#pragma GCC unroll 4
            for (size_t v = 0; v < NV; ++v)
                cv[v] += alpha * acc[r][v];
            storeCols<V, NV>(cp + r * ldc, cols, cv);
        }
    } else {
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r)
            storeCols<V, NV>(cp + r * ldc, cols, acc[r]);
    }
}

/**
 * @p rows (<= R) rows of one column chunk: a full R-row tile, or the
 * leftover rows through narrower tiles (never padded rows, so a
 * one-row call does one row of work).
 */
template <size_t R, typename V, size_t NV, bool Dot>
MM_GEMM_INLINE void
rowTiles(size_t rows, size_t k, const float *ap, const float *bp,
         size_t ldb, float alpha, float *cp, size_t ldc, size_t cols)
{
    if (rows == R) {
        tile<R, R, V, NV, Dot>(k, ap, bp, ldb, alpha, cp, ldc, cols);
        return;
    }
    size_t r = 0;
    if constexpr (R > 4) {
        if (rows >= 4) {
            tile<4, R, V, NV, Dot>(k, ap, bp, ldb, alpha, cp, ldc, cols);
            r = 4;
        }
    }
    for (; r < rows; ++r)
        tile<1, R, V, NV, Dot>(k, ap + r, bp, ldb, alpha, cp + r * ldc,
                               ldc, cols);
}

/**
 * Where op(B) (k x n) is read from at vector width W: columns
 * [0, nDirect) straight from B (update form only), the rest from a
 * panel of ldp floats per p, [nDirect, n) padded to whole vectors.
 */
template <size_t W, bool Dot>
struct PanelShape
{
    size_t nDirect, ldp;

    explicit PanelShape(size_t n)
        : nDirect(Dot ? 0 : n / (CV * W) * (CV * W)),
          ldp((n - nDirect + W - 1) / W * W)
    {}
};

/** Fill the k x ldp panel of op(B): B^T (Dot) or B's tail columns. */
template <size_t W, bool Dot>
MM_GEMM_INLINE void
packPanel(const Matrix &b, size_t k, size_t n, float *panel)
{
    const PanelShape<W, Dot> ps(n);
    const size_t ldp = ps.ldp, nDirect = ps.nDirect;
    if constexpr (Dot) {
        transposeCopy(b.data(), k, n, k, panel, ldp);
        for (size_t p = 0; p < k; ++p)
            for (size_t j = n; j < ldp; ++j)
                panel[p * ldp + j] = 0.0f;
    } else if (ldp > 0) {
        for (size_t p = 0; p < k; ++p) {
            const float *src = b.data() + p * n + nDirect;
            float *dst = panel + p * ldp;
            std::copy(src, src + (n - nDirect), dst);
            std::fill(dst + (n - nDirect), dst + ldp, 0.0f);
        }
    }
}

/**
 * C += alpha * op(A) * op(B) over R-row blocks and (CV * lanes)-column
 * chunks. op(B) rows are read in place where a chunk is full-width in
 * the update form; otherwise from a zero-padded panel of op(B) (the
 * dot form's B^T, or the update form's last partial chunk): @p packed
 * when given, else packed here.
 */
template <typename V, size_t R, bool Dot>
MM_GEMM_INLINE void
skinnyImpl(bool transA, float alpha, const Matrix &a, const Matrix &b,
           const float *packed, Matrix &c)
{
    constexpr size_t W = kLanes<V>;
    constexpr size_t NW = CV * W;
    const size_t m = c.rows(), n = c.cols();
    const size_t k = transA ? a.rows() : a.cols();
    SkinnyBuffers &ws = skinnyBuffers();

    const PanelShape<W, Dot> ps(n);
    const size_t nDirect = ps.nDirect, ldp = ps.ldp;
    const float *panel = packed;
    if (panel == nullptr) {
        float *scratch = packScratch(ws.b, k * ldp);
        packPanel<W, Dot>(b, k, n, scratch);
        panel = scratch;
    }

    // A's rows for one block, packed [p][r] (alpha folded in for the
    // update form, exactly as the scalar loop computes alpha * a_ip).
    const size_t ars = transA ? 1 : k;
    const size_t aps = transA ? m : 1;
    float *apack = packScratch(ws.a, k * R);
    for (size_t i0 = 0; i0 < m; i0 += R) {
        const size_t rows = std::min(R, m - i0);
        const float *asrc = a.data() + i0 * ars;
        for (size_t p = 0; p < k; ++p)
            for (size_t r = 0; r < rows; ++r)
                apack[p * R + r] = Dot ? asrc[r * ars + p * aps]
                                       : alpha * asrc[r * ars + p * aps];
        for (size_t j0 = 0; j0 < n; j0 += NW) {
            const size_t cols = std::min(NW, n - j0);
            const bool direct = j0 < nDirect;
            const float *bp = direct ? b.data() + j0 : panel + (j0 - nDirect);
            const size_t ldb = direct ? n : ldp;
            float *cp = c.data() + i0 * n + j0;
            if (cols <= W)
                rowTiles<R, V, 1, Dot>(rows, k, apack, bp, ldb, alpha, cp,
                                       n, cols);
            else
                rowTiles<R, V, CV, Dot>(rows, k, apack, bp, ldb, alpha, cp,
                                        n, cols);
        }
    }
}

template <typename V, size_t R>
MM_GEMM_INLINE void
skinnyEntry(bool transA, bool transB, float alpha, const Matrix &a,
            const Matrix &b, const float *panel, Matrix &c)
{
    if (transB)
        skinnyImpl<V, R, true>(transA, alpha, a, b, panel, c);
    else
        skinnyImpl<V, R, false>(transA, alpha, a, b, panel, c);
}

#if MM_GEMM_MULTIVERSION
MM_GEMM_TARGET_AVX512 void
skinnyAvx512(bool transA, bool transB, float alpha, const Matrix &a,
             const Matrix &b, const float *panel, Matrix &c)
{
    skinnyEntry<Vec16f, 8>(transA, transB, alpha, a, b, panel, c);
}

MM_GEMM_TARGET_AVX2 void
skinnyAvx2(bool transA, bool transB, float alpha, const Matrix &a,
           const Matrix &b, const float *panel, Matrix &c)
{
    skinnyEntry<Vec8f, 4>(transA, transB, alpha, a, b, panel, c);
}
#endif

void
skinnyPortable(bool transA, bool transB, float alpha, const Matrix &a,
               const Matrix &b, const float *panel, Matrix &c)
{
    skinnyEntry<Vec4f, 4>(transA, transB, alpha, a, b, panel, c);
}

/** packSkinnyB at vector width W. */
template <size_t W>
void
packSkinnyWidth(bool transB, const Matrix &b, AlignedFloatBuffer &out)
{
    const size_t k = transB ? b.cols() : b.rows();
    const size_t n = transB ? b.rows() : b.cols();
    if (transB) {
        out.resize(k * PanelShape<W, true>(n).ldp);
        packPanel<W, true>(b, k, n, out.data());
    } else {
        out.resize(k * PanelShape<W, false>(n).ldp);
        packPanel<W, false>(b, k, n, out.data());
    }
}

} // namespace

void
skinnyGemm(GemmIsa isa, bool transA, bool transB, float alpha,
           const Matrix &a, const Matrix &b, const float *panel, Matrix &c)
{
#if MM_GEMM_MULTIVERSION
    if (isa == GemmIsa::Avx512)
        return skinnyAvx512(transA, transB, alpha, a, b, panel, c);
    if (isa == GemmIsa::Avx2)
        return skinnyAvx2(transA, transB, alpha, a, b, panel, c);
#endif
    (void)isa;
    skinnyPortable(transA, transB, alpha, a, b, panel, c);
}

void
packSkinnyB(GemmIsa isa, bool transB, const Matrix &b,
            AlignedFloatBuffer &out)
{
    // The vector widths of skinnyAvx512, skinnyAvx2 and skinnyPortable.
    switch (isa) {
      case GemmIsa::Avx512:
        return packSkinnyWidth<kLanes<Vec16f>>(transB, b, out);
      case GemmIsa::Avx2:
        return packSkinnyWidth<kLanes<Vec8f>>(transB, b, out);
      case GemmIsa::Portable:
        break;
    }
    packSkinnyWidth<kLanes<Vec4f>>(transB, b, out);
}

} // namespace mm::gemm_detail
