#include "support/gemm_oracle.hpp"

#include "common/string_util.hpp"

namespace mm {

namespace {

/** C(m,n) += alpha * A(m,k) * B(k,n); ikj order, contiguous in B and C. */
void
naiveNN(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t m = a.rows(), k = a.cols(), n = b.cols();
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (size_t p = 0; p < k; ++p) {
            const float av = alpha * arow[p];
            const float *brow = b.data() + p * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/** C(m,n) += alpha * A(m,k) * B(n,k)^T; dot products over contiguous rows. */
void
naiveNT(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    for (size_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (size_t j = 0; j < n; ++j) {
            const float *brow = b.data() + j * k;
            float acc = 0.0f;
            for (size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] += alpha * acc;
        }
    }
}

/** C(m,n) += alpha * A(k,m)^T * B(k,n); rank-1 updates, contiguous rows. */
void
naiveTN(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t k = a.rows(), m = a.cols(), n = b.cols();
    for (size_t p = 0; p < k; ++p) {
        const float *arow = a.data() + p * m;
        const float *brow = b.data() + p * n;
        for (size_t i = 0; i < m; ++i) {
            const float av = alpha * arow[i];
            float *crow = c.data() + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/** C(m,n) += alpha * A(k,m)^T * B(n,k)^T; A's column gathered per row. */
void
naiveTT(float alpha, const Matrix &a, const Matrix &b, Matrix &c)
{
    const size_t k = a.rows(), m = a.cols(), n = b.rows();
    std::vector<float> acol(k);
    for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p)
            acol[p] = a(p, i);
        float *crow = c.data() + i * n;
        for (size_t j = 0; j < n; ++j) {
            const float *brow = b.data() + j * k;
            float acc = 0.0f;
            for (size_t p = 0; p < k; ++p)
                acc += acol[p] * brow[p];
            crow[j] += alpha * acc;
        }
    }
}

} // namespace

void
gemmNaive(bool transA, bool transB, float alpha, const Matrix &a,
          const Matrix &b, float beta, Matrix &c)
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
    if (m == 0 || n == 0 || ka == 0 || alpha == 0.0f)
        return;
    if (!transA && !transB)
        naiveNN(alpha, a, b, c);
    else if (!transA && transB)
        naiveNT(alpha, a, b, c);
    else if (transA && !transB)
        naiveTN(alpha, a, b, c);
    else
        naiveTT(alpha, a, b, c);
}

void
gemmReference(bool transA, bool transB, float alpha, const Matrix &a,
              const Matrix &b, float beta, Matrix &c)
{
    const size_t m = transA ? a.cols() : a.rows();
    const size_t k = transA ? a.rows() : a.cols();
    const size_t n = transB ? b.rows() : b.cols();
    MM_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < k; ++p) {
                float av = transA ? a(p, i) : a(i, p);
                float bv = transB ? b(j, p) : b(p, j);
                acc += double(av) * double(bv);
            }
            c(i, j) = alpha * float(acc) + beta * c(i, j);
        }
    }
}

} // namespace mm
