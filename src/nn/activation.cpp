#include "nn/activation.hpp"

#include <cmath>

namespace mm {

void
applyActivation(Activation act, Matrix &m)
{
    float *p = m.data();
    switch (act) {
      case Activation::Identity:
        return;
      case Activation::ReLU:
        for (size_t i = 0; i < m.size(); ++i)
            p[i] = p[i] > 0.0f ? p[i] : 0.0f;
        return;
      case Activation::Tanh:
        for (size_t i = 0; i < m.size(); ++i)
            p[i] = std::tanh(p[i]);
        return;
    }
    MM_ASSERT(false, "unknown activation");
}

void
applyActivationGrad(Activation act, const Matrix &out, Matrix &grad)
{
    MM_ASSERT(out.rows() == grad.rows() && out.cols() == grad.cols(),
              "activation grad shape mismatch");
    const float *o = out.data();
    float *g = grad.data();
    switch (act) {
      case Activation::Identity:
        return;
      case Activation::ReLU:
        for (size_t i = 0; i < out.size(); ++i)
            g[i] = o[i] > 0.0f ? g[i] : 0.0f;
        return;
      case Activation::Tanh:
        for (size_t i = 0; i < out.size(); ++i)
            g[i] *= 1.0f - o[i] * o[i];
        return;
    }
    MM_ASSERT(false, "unknown activation");
}

namespace {

/** Entry guard for the fused helpers: their per-row switches have no
 * room for a trailing assert, so reject unknown enum values up front
 * instead of silently skipping the bias/activation work. */
void
assertKnownActivation(Activation act)
{
    MM_ASSERT(act == Activation::Identity || act == Activation::ReLU
                  || act == Activation::Tanh,
              "unknown activation");
}

/** applyActivationGradBias, with or without the dBias reduction. */
template <bool Bias>
void
activationGradRows(Activation act, const Matrix &out, const Matrix &dOut,
                   Matrix &grad, float *db)
{
    const size_t cols = out.cols();
    for (size_t r = 0; r < out.rows(); ++r) {
        const float *o = out.data() + r * cols;
        const float *d = dOut.data() + r * cols;
        float *g = grad.data() + r * cols;
        switch (act) {
          case Activation::Identity:
            for (size_t c = 0; c < cols; ++c) {
                g[c] = d[c];
                if constexpr (Bias)
                    db[c] += g[c];
            }
            break;
          case Activation::ReLU:
            // d[c] is loaded unconditionally: a load under the branch
            // keeps the loop from vectorizing.
            for (size_t c = 0; c < cols; ++c) {
                const float dc = d[c];
                g[c] = o[c] > 0.0f ? dc : 0.0f;
                if constexpr (Bias)
                    db[c] += g[c];
            }
            break;
          case Activation::Tanh:
            for (size_t c = 0; c < cols; ++c) {
                g[c] = d[c] * (1.0f - o[c] * o[c]);
                if constexpr (Bias)
                    db[c] += g[c];
            }
            break;
        }
    }
}

} // namespace

void
applyBiasActivation(Activation act, const Matrix &bias, Matrix &m)
{
    assertKnownActivation(act);
    MM_ASSERT(bias.rows() == 1 && bias.cols() == m.cols(),
              "bias shape mismatch");
    const float *bp = bias.data();
    const size_t cols = m.cols();
    for (size_t r = 0; r < m.rows(); ++r) {
        float *row = m.data() + r * cols;
        switch (act) {
          case Activation::Identity:
            for (size_t c = 0; c < cols; ++c)
                row[c] += bp[c];
            break;
          case Activation::ReLU:
            for (size_t c = 0; c < cols; ++c) {
                const float z = row[c] + bp[c];
                row[c] = z > 0.0f ? z : 0.0f;
            }
            break;
          case Activation::Tanh:
            for (size_t c = 0; c < cols; ++c)
                row[c] = std::tanh(row[c] + bp[c]);
            break;
        }
    }
}

void
applyActivationGradBias(Activation act, const Matrix &out,
                        const Matrix &dOut, Matrix &grad, Matrix *dBias)
{
    assertKnownActivation(act);
    MM_ASSERT(out.rows() == dOut.rows() && out.cols() == dOut.cols(),
              "activation grad shape mismatch");
    grad.ensureShape(dOut.rows(), dOut.cols());
    if (dBias == nullptr) {
        activationGradRows<false>(act, out, dOut, grad, nullptr);
        return;
    }
    MM_ASSERT(dBias->rows() == 1 && dBias->cols() == out.cols(),
              "bias grad shape mismatch");
    activationGradRows<true>(act, out, dOut, grad, dBias->data());
}

const char *
activationName(Activation act)
{
    switch (act) {
      case Activation::Identity:
        return "identity";
      case Activation::ReLU:
        return "relu";
      case Activation::Tanh:
        return "tanh";
    }
    return "?";
}

} // namespace mm
