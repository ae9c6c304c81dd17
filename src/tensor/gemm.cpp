#include "tensor/gemm.hpp"

#include <algorithm>
#include <array>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm_simd.hpp"

namespace mm {

namespace {

using namespace gemm_detail;

// ---------------------------------------------------------------------------
// Blocking parameters.
//
// MR x NR, the micro-tile held in registers, is per ISA variant (see
// blockedRowsAvx512 below). MC x KC sizes the packed A panel (~64 KiB,
// L2-resident); KC x NC sizes the packed B panel. MC must be a multiple
// of every MR and NC of every NR.
// ---------------------------------------------------------------------------
constexpr size_t MC = 64;
constexpr size_t KC = 256;
constexpr size_t NC = 1024;

/** Shapes with k*n below this take the skinny kernels (gemm_skinny.cpp). */
constexpr size_t kBlockedMinKN = 4096;

/** Minimum 2*m*n*k flops before row-range threading pays off. */
constexpr double kParallelMinFlops = double(1 << 23);

inline float
elemA(const Matrix &a, bool transA, size_t i, size_t p)
{
    return transA ? a(p, i) : a(i, p);
}

/** Per-thread packing scratch; reused across calls, never shared. */
struct PackBuffers
{
    AlignedFloatBuffer a;
    AlignedFloatBuffer b;
};

PackBuffers &
packBuffers()
{
    static thread_local PackBuffers bufs;
    return bufs;
}

/**
 * Pack an mc x kc block of op(A), alpha folded in, as MR-row
 * micro-panels: panel ir holds [p][i] with the MR row values of each p
 * contiguous. A last partial panel is left unfilled past mc: the
 * macro-kernel never reads those rows.
 */
template <size_t MR>
MM_GEMM_INLINE void
packA(const Matrix &a, bool transA, float alpha, size_t i0, size_t mc,
      size_t p0, size_t kc, float *dst)
{
    const size_t panels = (mc + MR - 1) / MR;
    for (size_t ir = 0; ir < panels; ++ir) {
        float *panel = dst + ir * kc * MR;
        const size_t rows = std::min(MR, mc - ir * MR);
        for (size_t p = 0; p < kc; ++p) {
            for (size_t i = 0; i < rows; ++i)
                panel[p * MR + i] =
                    alpha * elemA(a, transA, i0 + ir * MR + i, p0 + p);
        }
    }
}

/**
 * Pack a kc x nc block of op(B) as NR-column micro-panels: panel jr
 * holds [p][j] with the NR column values of each p contiguous (whole
 * aligned cache lines per p). Columns past nc are zero.
 */
template <size_t NR>
MM_GEMM_INLINE void
packB(const Matrix &b, bool transB, size_t p0, size_t kc, size_t j0,
      size_t nc, float *dst)
{
    const size_t panels = (nc + NR - 1) / NR;
    for (size_t jr = 0; jr < panels; ++jr) {
        float *panel = dst + jr * kc * NR;
        const size_t cols = std::min(NR, nc - jr * NR);
        if (!transB && cols == NR) {
            for (size_t p = 0; p < kc; ++p) {
                const float *src = b.data() + (p0 + p) * b.cols() + j0
                                   + jr * NR;
                std::copy(src, src + NR, panel + p * NR);
            }
            continue;
        }
        if (transB) {
            transposeCopy(b.data() + (j0 + jr * NR) * b.cols() + p0,
                          b.cols(), cols, kc, panel, NR);
        } else {
            for (size_t p = 0; p < kc; ++p)
                for (size_t j = 0; j < cols; ++j)
                    panel[p * NR + j] = b(p0 + p, j0 + jr * NR + j);
        }
        for (size_t p = 0; p < kc; ++p)
            for (size_t j = cols; j < NR; ++j)
                panel[p * NR + j] = 0.0f;
    }
}

/**
 * C[0..R) x [0..nr) += the R x (NV * lanes) product of @p R rows of a
 * packed A panel (row stride MR) and one packed B panel. One strictly
 * sequential accumulation chain per element, starting from zero, one
 * multiply-add per p in p order, then a single c += acc: no k-splitting
 * and no horizontal sums, so a row's result does not depend on which
 * batch, tile or kernel width it lands in.
 */
template <size_t R, size_t MR, typename V, size_t NV>
MM_GEMM_INLINE void
microKernel(size_t kc, const float *apanel, const float *bpanel, float *c,
            size_t ldc, size_t nr)
{
    constexpr size_t W = kLanes<V>;
    constexpr size_t NR = NV * W;
    V acc[R][NV];
#pragma GCC unroll 8
    for (size_t i = 0; i < R; ++i)
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v)
            acc[i][v] = V{};
    for (size_t p = 0; p < kc; ++p) {
        const float *arow = apanel + p * MR;
        const float *brow = static_cast<const float *>(
            __builtin_assume_aligned(bpanel + p * NR, kMatrixAlignment));
        V bv[NV];
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v)
            bv[v] = loadv<V>(brow + v * W);
#pragma GCC unroll 8
        for (size_t i = 0; i < R; ++i) {
            // Scalar-times-vector broadcasts the scalar exactly.
            const float av = arow[i];
#pragma GCC unroll 4
            for (size_t v = 0; v < NV; ++v)
                acc[i][v] += av * bv[v];
        }
    }
#pragma GCC unroll 8
    for (size_t i = 0; i < R; ++i) {
        V cv[NV];
        loadCols<V, NV>(c + i * ldc, nr, cv);
#pragma GCC unroll 4
        for (size_t v = 0; v < NV; ++v)
            cv[v] += acc[i][v];
        storeCols<V, NV>(c + i * ldc, nr, cv);
    }
}

/**
 * C block += packed-A panels * packed-B panels, clipping tile edges.
 * Rows past the last full MR panel go through narrower kernels instead
 * of zero-padded rows, so a one-row call does one row of work.
 */
template <size_t MR, typename V, size_t NV>
MM_GEMM_INLINE void
macroKernel(const float *ap, const float *bp, size_t kc, Matrix &c,
            size_t ic, size_t mc, size_t jc, size_t nc)
{
    constexpr size_t NR = NV * kLanes<V>;
    const size_t ldc = c.cols();
    for (size_t jr = 0; jr < nc; jr += NR) {
        const float *bpanel = bp + (jr / NR) * kc * NR;
        const size_t nr = std::min(NR, nc - jr);
        for (size_t ir = 0; ir < mc; ir += MR) {
            const float *apanel = ap + (ir / MR) * kc * MR;
            float *cp = c.data() + (ic + ir) * ldc + jc + jr;
            const size_t mr = std::min(MR, mc - ir);
            if (mr == MR) {
                microKernel<MR, MR, V, NV>(kc, apanel, bpanel, cp, ldc, nr);
                continue;
            }
            size_t i = 0;
            if constexpr (MR > 4) {
                if (mr >= 4) {
                    microKernel<4, MR, V, NV>(kc, apanel, bpanel, cp, ldc,
                                              nr);
                    i = 4;
                }
            }
            for (; i < mr; ++i)
                microKernel<1, MR, V, NV>(kc, apanel + i, bpanel,
                                          cp + i * ldc, ldc, nr);
        }
    }
}

/** Width of the KC x NC block of op(B) at column jc, padded to NR. */
template <size_t NR>
constexpr size_t
paddedBlockWidth(size_t n, size_t jc)
{
    return (std::min(NC, n - jc) + NR - 1) / NR * NR;
}

/**
 * Offset of block (jc, pc) in a PackedB of the blocked family: every
 * column block before jc is a full NC wide and k deep, and the blocks
 * of column block jc before pc are KC deep.
 */
template <size_t NR>
constexpr size_t
packedBlockOffset(size_t k, size_t n, size_t jc, size_t pc)
{
    return jc * k + pc * paddedBlockWidth<NR>(n, jc);
}

/**
 * Blocked GEMM over C rows [rowBegin, rowEnd); beta already applied.
 * The k partition and per-element accumulation order are row-range
 * independent, so any row split yields bitwise-identical results.
 * op(B)'s panels come from @p packed (a PackedB's data) when given.
 */
template <size_t MR, typename V, size_t NV>
MM_GEMM_INLINE void
blockedRowsImpl(bool transA, bool transB, float alpha, const Matrix &a,
                const Matrix &b, const float *packed, Matrix &c,
                size_t rowBegin, size_t rowEnd, size_t k, size_t n)
{
    constexpr size_t NR = NV * kLanes<V>;
    static_assert(MC % MR == 0 && NC % NR == 0, "blocking mismatch");
    PackBuffers &ws = packBuffers();
    for (size_t jc = 0; jc < n; jc += NC) {
        const size_t nc = std::min(NC, n - jc);
        const size_t nPad = paddedBlockWidth<NR>(n, jc);
        for (size_t pc = 0; pc < k; pc += KC) {
            const size_t kc = std::min(KC, k - pc);
            const float *bp;
            if (packed != nullptr) {
                bp = packed + packedBlockOffset<NR>(k, n, jc, pc);
            } else {
                float *scratch = packScratch(ws.b, kc * nPad);
                packB<NR>(b, transB, pc, kc, jc, nc, scratch);
                bp = scratch;
            }
            for (size_t ic = rowBegin; ic < rowEnd; ic += MC) {
                const size_t mc = std::min(MC, rowEnd - ic);
                const size_t mPad = (mc + MR - 1) / MR * MR;
                float *ap = packScratch(ws.a, mPad * kc);
                packA<MR>(a, transA, alpha, ic, mc, pc, kc, ap);
                macroKernel<MR, V, NV>(ap, bp, kc, c, ic, mc, jc, nc);
            }
        }
    }
}

using BlockedRowsFn = void (*)(bool, bool, float, const Matrix &,
                               const Matrix &, const float *, Matrix &,
                               size_t, size_t, size_t, size_t);

// AVX-512 runs an 8 x 32 tile (16 zmm accumulators); AVX2 and the
// portable build keep 4 x 16 (eight ymm / sixteen xmm halves). With
// AVX2+FMA or wider, every multiply-add compiles to one FMA.
#if MM_GEMM_MULTIVERSION
MM_GEMM_TARGET_AVX512 void
blockedRowsAvx512(bool transA, bool transB, float alpha, const Matrix &a,
                  const Matrix &b, const float *packed, Matrix &c,
                  size_t rowBegin, size_t rowEnd, size_t k, size_t n)
{
    blockedRowsImpl<8, Vec16f, 2>(transA, transB, alpha, a, b, packed, c,
                                  rowBegin, rowEnd, k, n);
}

MM_GEMM_TARGET_AVX2 void
blockedRowsAvx2(bool transA, bool transB, float alpha, const Matrix &a,
                const Matrix &b, const float *packed, Matrix &c,
                size_t rowBegin, size_t rowEnd, size_t k, size_t n)
{
    blockedRowsImpl<4, Vec8f, 2>(transA, transB, alpha, a, b, packed, c,
                                 rowBegin, rowEnd, k, n);
}
#endif

void
blockedRowsPortable(bool transA, bool transB, float alpha, const Matrix &a,
                    const Matrix &b, const float *packed, Matrix &c,
                    size_t rowBegin, size_t rowEnd, size_t k, size_t n)
{
    blockedRowsImpl<4, Vec8f, 2>(transA, transB, alpha, a, b, packed, c,
                                 rowBegin, rowEnd, k, n);
}

/** The kernels this CPU runs, chosen once. */
struct Kernels
{
    GemmIsa isa;
    BlockedRowsFn blockedRows;
    const char *name;
};

Kernels
resolveKernels()
{
#if MM_GEMM_MULTIVERSION
    if (__builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512vl"))
        return {GemmIsa::Avx512, blockedRowsAvx512, "avx512"};
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return {GemmIsa::Avx2, blockedRowsAvx2, "avx2"};
#endif
    return {GemmIsa::Portable, blockedRowsPortable, "portable"};
}

const Kernels &
kernels()
{
    static const Kernels k = resolveKernels();
    return k;
}

/** Shape-check and apply beta; returns {m, k, n}. */
std::array<size_t, 3>
prologue(bool transA, bool transB, const Matrix &a, const Matrix &b,
         float beta, Matrix &c)
{
    const size_t m = transA ? a.cols() : a.rows();
    const size_t ka = transA ? a.rows() : a.cols();
    const size_t kb = transB ? b.cols() : b.rows();
    const size_t n = transB ? b.rows() : b.cols();
    MM_ASSERT(ka == kb,
              strCat("gemm inner-dimension mismatch: ", ka, " vs ", kb));
    MM_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");

    if (beta == 0.0f)
        c.zero();
    else if (beta != 1.0f)
        scale(beta, c);
    return {m, ka, n};
}

/** Every blocked-family block of op(B), laid out as packedBlockOffset. */
template <size_t NR>
void
packBlocked(const Matrix &b, bool transB, size_t k, size_t n,
            AlignedFloatBuffer &out)
{
    out.resize(packedBlockOffset<NR>(k, n, n / NC * NC, k));
    for (size_t jc = 0; jc < n; jc += NC)
        for (size_t pc = 0; pc < k; pc += KC)
            packB<NR>(b, transB, pc, std::min(KC, k - pc), jc,
                      std::min(NC, n - jc),
                      out.data() + packedBlockOffset<NR>(k, n, jc, pc));
}

} // namespace

PackedB::PackedB(const Matrix &b, bool transB)
    : k_(transB ? b.cols() : b.rows()), n_(transB ? b.rows() : b.cols()),
      transB_(transB)
{
    const Kernels &kern = kernels();
    if (k_ * n_ < kBlockedMinKN) {
        packSkinnyB(kern.isa, transB, b, buf);
        return;
    }
    // NR of blockedRowsAvx512 (8 x 32) and of the 4 x 16 variants.
    if (kern.isa == GemmIsa::Avx512)
        packBlocked<2 * kLanes<Vec16f>>(b, transB, k_, n_, buf);
    else
        packBlocked<2 * kLanes<Vec8f>>(b, transB, k_, n_, buf);
}

void
gemm(bool transA, bool transB, float alpha, const Matrix &a, const Matrix &b,
     float beta, Matrix &c, ThreadPool *pool)
{
    gemm(transA, transB, alpha, a, b, nullptr, beta, c, pool);
}

void
gemm(bool transA, bool transB, float alpha, const Matrix &a, const Matrix &b,
     const PackedB *packedB, float beta, Matrix &c, ThreadPool *pool)
{
    auto [m, k, n] = prologue(transA, transB, a, b, beta, c);
    const float *packed = nullptr;
    if (packedB != nullptr) {
        MM_ASSERT(packedB->transposed() == transB && packedB->depth() == k
                      && packedB->width() == n,
                  "packed B operand does not match gemm's op(B)");
        packed = packedB->data();
    }
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f)
        return;

    // Dispatch on (k, n) only: a batched row and the same row alone must
    // take the same kernel so their arithmetic is identical.
    const Kernels &kern = kernels();
    if (k * n < kBlockedMinKN) {
        skinnyGemm(kern.isa, transA, transB, alpha, a, b, packed, c);
        return;
    }

    size_t chunks = 1;
    if (pool != nullptr && pool->lanes() > 1
        && 2.0 * double(m) * double(n) * double(k) >= kParallelMinFlops)
        chunks = std::max<size_t>(1, std::min(pool->lanes(), m / MC));

    if (chunks <= 1) {
        kern.blockedRows(transA, transB, alpha, a, b, packed, c, 0, m, k, n);
        return;
    }

    // MC-aligned disjoint row ranges: identical arithmetic per element
    // at any chunk count, so threading cannot perturb results.
    const size_t rowBlocks = (m + MC - 1) / MC;
    pool->parallelFor(chunks, [&, mm_ = m, k_ = k, n_ = n](size_t ci) {
        const size_t b0 = rowBlocks * ci / chunks;
        const size_t b1 = rowBlocks * (ci + 1) / chunks;
        const size_t r0 = b0 * MC;
        const size_t r1 = std::min(mm_, b1 * MC);
        if (r0 < r1)
            kern.blockedRows(transA, transB, alpha, a, b, packed, c, r0,
                             r1, k_, n_);
    });
}

const char *
gemmKernelName()
{
    return kernels().name;
}

} // namespace mm
