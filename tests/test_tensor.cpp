/**
 * @file
 * Tests for the dense linear-algebra substrate: GEMM against the
 * reference kernel for every transpose combination and shape class
 * (including the blocked+packed kernel, threading determinism and the
 * aligned allocator), the skinny kernels bitwise against their scalar
 * oracle, and pre-packed B operands bitwise against per-call packing.
 */
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "support/gemm_oracle.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace mm {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.uniformReal(-1.0, 1.0));
    return m;
}

TEST(Matrix, BasicAccessAndFill)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
    m.fill(2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
    EXPECT_DOUBLE_EQ(squaredNorm(m), 6 * 4.0);
}

TEST(Matrix, ReshapePreservesData)
{
    Matrix m(2, 6);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(i);
    m.reshape(3, 4);
    EXPECT_FLOAT_EQ(m.at(2, 3), 11.0f);
}

TEST(Matrix, RowSpanViewsUnderlyingData)
{
    Matrix m(3, 2);
    m.at(1, 0) = 7.0f;
    auto row = m.row(1);
    EXPECT_FLOAT_EQ(row[0], 7.0f);
    row[1] = 9.0f;
    EXPECT_FLOAT_EQ(m.at(1, 1), 9.0f);
}

TEST(Matrix, AxpyAndScale)
{
    Matrix x(1, 3), y(1, 3);
    x.fill(2.0f);
    y.fill(1.0f);
    axpy(3.0f, x, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 7.0f);
    scale(0.5f, y);
    EXPECT_FLOAT_EQ(y.at(0, 2), 3.5f);
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>>
{};

TEST_P(GemmShapes, MatchesReference)
{
    auto [m, k, n, ta, tb] = GetParam();
    Rng rng(uint64_t(m * 1000 + k * 100 + n * 10 + ta * 2 + tb));
    Matrix a = ta ? randomMatrix(size_t(k), size_t(m), rng)
                  : randomMatrix(size_t(m), size_t(k), rng);
    Matrix b = tb ? randomMatrix(size_t(n), size_t(k), rng)
                  : randomMatrix(size_t(k), size_t(n), rng);
    Matrix c = randomMatrix(size_t(m), size_t(n), rng);
    Matrix cRef = c;

    gemm(ta, tb, 1.5f, a, b, 0.25f, c);
    gemmReference(ta, tb, 1.5f, a, b, 0.25f, cRef);
    EXPECT_LT(maxAbsDiff(c, cRef), 1e-3)
        << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
        << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, GemmShapes,
    ::testing::Combine(::testing::Values(1, 3, 17), ::testing::Values(1, 8, 33),
                       ::testing::Values(1, 5, 29), ::testing::Bool(),
                       ::testing::Bool()));

TEST(Gemm, BetaZeroOverwritesGarbage)
{
    Rng rng(4);
    Matrix a = randomMatrix(4, 4, rng);
    Matrix b = randomMatrix(4, 4, rng);
    Matrix c(4, 4);
    c.fill(std::numeric_limits<float>::quiet_NaN());
    gemm(false, false, 1.0f, a, b, 0.0f, c);
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_FALSE(std::isnan(c.data()[i]));
}

TEST(Matrix, StorageIsCacheLineAligned)
{
    for (size_t rows : {1u, 3u, 7u, 64u, 129u}) {
        Matrix m(rows, rows + 1);
        EXPECT_EQ(uintptr_t(m.data()) % kMatrixAlignment, 0u)
            << "rows=" << rows;
    }
    Matrix m(2, 3);
    m.resize(37, 53);
    EXPECT_EQ(uintptr_t(m.data()) % kMatrixAlignment, 0u);
    m.ensureShape(200, 17);
    EXPECT_EQ(uintptr_t(m.data()) % kMatrixAlignment, 0u);
    Matrix copy = m;
    EXPECT_EQ(uintptr_t(copy.data()) % kMatrixAlignment, 0u);
}

/**
 * Randomized sweep over all four transpose combinations and the shape
 * classes the dispatcher distinguishes: degenerate (empty / 1xN / Nx1),
 * scalar-kernel small shapes, blocked shapes, and tile-edge shapes that
 * exercise partial MR/NR/KC tiles.
 */
TEST(Gemm, RandomizedPropertySweep)
{
    const std::vector<size_t> dims = {0, 1, 2, 3, 5, 16, 31, 64, 65, 130};
    Rng rng(20240721);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t m = dims[size_t(rng.uniformInt(0, 9))];
        const size_t k = dims[size_t(rng.uniformInt(0, 9))];
        const size_t n = dims[size_t(rng.uniformInt(0, 9))];
        const bool ta = rng.bernoulli(0.5);
        const bool tb = rng.bernoulli(0.5);
        const float alpha =
            float(rng.pick(std::vector<double>{0.0, 1.0, -1.5, 0.37}));
        const float beta =
            float(rng.pick(std::vector<double>{0.0, 1.0, 0.5}));

        Matrix a = ta ? randomMatrix(k, m, rng) : randomMatrix(m, k, rng);
        Matrix b = tb ? randomMatrix(n, k, rng) : randomMatrix(k, n, rng);
        Matrix c = randomMatrix(m, n, rng);
        Matrix cRef = c;

        gemm(ta, tb, alpha, a, b, beta, c);
        gemmReference(ta, tb, alpha, a, b, beta, cRef);
        const double tol = 1e-5 * double(k + 1);
        EXPECT_LT(maxAbsDiff(c, cRef), tol)
            << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
            << " tb=" << tb << " alpha=" << alpha << " beta=" << beta;
    }
}

/** The blocked kernel must agree with the reference on large shapes. */
TEST(Gemm, BlockedMatchesReferenceOnLargeShapes)
{
    Rng rng(77);
    for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{128, 300, 70},
                           {1, 2048, 96},
                           {130, 257, 1030}}) {
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                Matrix a = ta ? randomMatrix(k, m, rng)
                              : randomMatrix(m, k, rng);
                Matrix b = tb ? randomMatrix(n, k, rng)
                              : randomMatrix(k, n, rng);
                Matrix c(m, n), cRef(m, n);
                gemm(ta, tb, 1.0f, a, b, 0.0f, c);
                gemmReference(ta, tb, 1.0f, a, b, 0.0f, cRef);
                EXPECT_LT(maxAbsDiff(c, cRef), 1e-5 * double(k))
                    << "m=" << m << " k=" << k << " n=" << n
                    << " ta=" << ta << " tb=" << tb;
            }
        }
    }
}

/** True when @p x and @p y hold the same bits in every element. */
bool
bitwiseEqual(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols()
           && std::memcmp(x.data(), y.data(), x.size() * sizeof(float))
                  == 0;
}

/**
 * Below the blocked threshold (k*n < 4096) gemm runs the vectorized
 * skinny kernels, which must reproduce the scalar loops of gemmNaive
 * bit for bit: every transpose form, alpha/beta, row count (full and
 * partial row tiles, one-row calls) and column count (full and partial
 * vector chunks). The (k, n) list holds the surrogate's input/output
 * layer shapes (forward and input gradient) plus odd edge shapes.
 */
TEST(Gemm, SkinnyKernelsEqualScalarOracleBitwise)
{
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {63, 64}, {41, 64}, {64, 12}, {64, 15}, {64, 63}, {64, 41},
        {12, 64}, {15, 64}, {1, 1},   {5, 7},   {33, 29}, {2, 2047}};
    const std::vector<size_t> rows = {1, 2, 3, 4, 5, 7, 8, 9, 17, 128};
    Rng rng(4096);
    for (auto [k, n] : shapes) {
        ASSERT_LT(k * n, 4096u) << "not a skinny shape";
        for (size_t m : rows) {
            for (int form = 0; form < 4; ++form) {
                const bool ta = (form & 1) != 0, tb = (form & 2) != 0;
                Matrix a = ta ? randomMatrix(k, m, rng)
                              : randomMatrix(m, k, rng);
                Matrix b = tb ? randomMatrix(n, k, rng)
                              : randomMatrix(k, n, rng);
                const Matrix c0 = randomMatrix(m, n, rng);
                for (float alpha : {1.0f, -1.5f}) {
                    for (float beta : {0.0f, 1.0f, 0.5f}) {
                        Matrix c = c0, expect = c0;
                        gemm(ta, tb, alpha, a, b, beta, c);
                        gemmNaive(ta, tb, alpha, a, b, beta, expect);
                        EXPECT_TRUE(bitwiseEqual(c, expect))
                            << "m=" << m << " k=" << k << " n=" << n
                            << " ta=" << ta << " tb=" << tb
                            << " alpha=" << alpha << " beta=" << beta;
                    }
                }
            }
        }
    }
}

/**
 * Rows of a batched product must be bitwise identical to the same rows
 * evaluated in any smaller batch — the invariant the Phase-2 batched
 * driver's per-sample equivalence rests on. Covers the blocked kernel's
 * full and partial row panels (1..17 rows against a 64-row batch) for
 * the three forms training issues (forward NT, input-gradient NN,
 * weight-gradient TN) at the surrogate's hidden-layer shapes.
 */
TEST(Gemm, RowResultIndependentOfBatchSize)
{
    const size_t batch = 64;
    const std::vector<std::pair<size_t, size_t>> layers = {
        {64, 128}, {128, 128}, {128, 64}, {96, 80}};
    Rng rng(31);
    for (auto [in, out] : layers) {
        for (auto [k, n] : {std::pair{in, out}, std::pair{out, in}}) {
            for (int form = 0; form < 3; ++form) {
                const bool ta = form == 2, tb = form == 1;
                Matrix a = ta ? randomMatrix(k, batch, rng)
                              : randomMatrix(batch, k, rng);
                Matrix b = tb ? randomMatrix(n, k, rng)
                              : randomMatrix(k, n, rng);
                Matrix full(batch, n);
                gemm(ta, tb, 1.0f, a, b, 0.0f, full);
                for (size_t m = 1; m <= 17; ++m) {
                    const size_t r0 = (m * 7) % (batch - m + 1);
                    Matrix part = ta ? Matrix(k, m) : Matrix(m, k);
                    for (size_t i = 0; i < m; ++i)
                        for (size_t p = 0; p < k; ++p) {
                            if (ta)
                                part(p, i) = a(p, r0 + i);
                            else
                                part(i, p) = a(r0 + i, p);
                        }
                    Matrix c(m, n);
                    gemm(ta, tb, 1.0f, part, b, 0.0f, c);
                    bool same = true;
                    for (size_t i = 0; i < m; ++i)
                        same = same
                               && std::memcmp(c.row(i).data(),
                                              full.row(r0 + i).data(),
                                              n * sizeof(float))
                                      == 0;
                    EXPECT_TRUE(same) << "m=" << m << " k=" << k
                                      << " n=" << n << " ta=" << ta
                                      << " tb=" << tb << " r0=" << r0;
                }
            }
        }
    }
}

/**
 * A pre-packed B operand must reproduce the unpacked call bit for bit in
 * both kernel families: the skinny shapes of the sweep above, the
 * surrogate's hidden-layer shapes, and blocked shapes with k past KC or
 * n past NC (several packed blocks). Every transpose form, alpha and
 * beta, 1..17 rows and 128, serial and on a pool (the 128-row blocked
 * calls split into row ranges there).
 */
TEST(Gemm, PackedOperandBitwiseEqualsUnpacked)
{
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {62, 64},  {63, 64},   {41, 64},    {64, 12},  {64, 15},
        {64, 63},  {12, 64},   {15, 64},    {1, 1},    {5, 7},
        {33, 29},  {2, 2047},  {64, 128},   {128, 128}, {128, 64},
        {96, 80},  {300, 70},  {257, 1030}, {70, 1100}};
    std::vector<size_t> rows;
    for (size_t m = 1; m <= 17; ++m)
        rows.push_back(m);
    rows.push_back(128);
    ThreadPool pool(3);
    Rng rng(8128);
    for (auto [k, n] : shapes) {
        for (int form = 0; form < 4; ++form) {
            const bool ta = (form & 1) != 0, tb = (form & 2) != 0;
            const Matrix b = tb ? randomMatrix(n, k, rng)
                                : randomMatrix(k, n, rng);
            const PackedB packed(b, tb);
            ASSERT_EQ(packed.depth(), k);
            ASSERT_EQ(packed.width(), n);
            for (size_t m : rows) {
                Matrix a = ta ? randomMatrix(k, m, rng)
                              : randomMatrix(m, k, rng);
                const Matrix c0 = randomMatrix(m, n, rng);
                for (float alpha : {1.0f, -1.5f}) {
                    for (float beta : {0.0f, 1.0f, 0.5f}) {
                        Matrix expect = c0, serial = c0, pooled = c0;
                        gemm(ta, tb, alpha, a, b, beta, expect);
                        gemm(ta, tb, alpha, a, b, &packed, beta, serial);
                        gemm(ta, tb, alpha, a, b, &packed, beta, pooled,
                             &pool);
                        EXPECT_TRUE(bitwiseEqual(serial, expect)
                                    && bitwiseEqual(pooled, expect))
                            << "m=" << m << " k=" << k << " n=" << n
                            << " ta=" << ta << " tb=" << tb
                            << " alpha=" << alpha << " beta=" << beta;
                    }
                }
            }
        }
    }
}

TEST(Gemm, KernelNameNamesTheDispatchedVariant)
{
    const std::string name = gemmKernelName();
    EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "portable")
        << name;
}

/** Threaded GEMM must be bitwise identical at any lane count. */
TEST(Gemm, ThreadedBitwiseEqualsSerial)
{
    Rng rng(55);
    const size_t m = 400, k = 160, n = 220;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix serial(m, n);
    gemm(false, false, 1.0f, a, b, 0.0f, serial);
    for (size_t lanes : {2u, 3u, 5u}) {
        ThreadPool pool(lanes);
        Matrix c(m, n);
        gemm(false, false, 1.0f, a, b, 0.0f, c, &pool);
        EXPECT_EQ(maxAbsDiff(c, serial), 0.0) << "lanes=" << lanes;
    }
}

/** Nested use: a GEMM issued from inside a pool job runs inline. */
TEST(Gemm, NestedCallInsidePoolJob)
{
    Rng rng(91);
    // Big enough that the inner gemm itself wants to thread.
    const size_t m = 300, k = 140, n = 110;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix expect(m, n);
    gemm(false, false, 1.0f, a, b, 0.0f, expect);

    ThreadPool pool(4);
    std::vector<Matrix> results(6, Matrix(m, n));
    pool.parallelFor(results.size(), [&](size_t i) {
        gemm(false, false, 1.0f, a, b, 0.0f, results[i], &pool);
    });
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(maxAbsDiff(results[i], expect), 0.0) << "job " << i;
}

/** Concurrent submitters from distinct threads share one pool safely. */
TEST(Gemm, ConcurrentExternalCallersShareOnePool)
{
    Rng rng(17);
    const size_t m = 256, k = 128, n = 128;
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix expect(m, n);
    gemm(false, false, 1.0f, a, b, 0.0f, expect);

    ThreadPool pool(3);
    std::vector<Matrix> results(4, Matrix(m, n));
    std::vector<std::thread> callers;
    for (size_t i = 0; i < results.size(); ++i)
        callers.emplace_back([&, i] {
            gemm(false, false, 1.0f, a, b, 0.0f, results[i], &pool);
        });
    for (auto &t : callers)
        t.join();
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(maxAbsDiff(results[i], expect), 0.0) << "caller " << i;
}

TEST(Gemm, NaiveMatchesReference)
{
    Rng rng(7);
    for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
            const size_t m = 33, k = 47, n = 29;
            Matrix a = ta ? randomMatrix(k, m, rng)
                          : randomMatrix(m, k, rng);
            Matrix b = tb ? randomMatrix(n, k, rng)
                          : randomMatrix(k, n, rng);
            Matrix c(m, n), cRef(m, n);
            gemmNaive(ta, tb, 2.0f, a, b, 0.0f, c);
            gemmReference(ta, tb, 2.0f, a, b, 0.0f, cRef);
            EXPECT_LT(maxAbsDiff(c, cRef), 1e-4)
                << "ta=" << ta << " tb=" << tb;
        }
    }
}

TEST(Gemm, IdentityIsNoOp)
{
    Rng rng(9);
    Matrix a = randomMatrix(5, 5, rng);
    Matrix eye(5, 5);
    for (size_t i = 0; i < 5; ++i)
        eye(i, i) = 1.0f;
    Matrix c(5, 5);
    gemm(false, false, 1.0f, a, eye, 0.0f, c);
    EXPECT_LT(maxAbsDiff(a, c), 1e-6);
}

} // namespace
} // namespace mm
