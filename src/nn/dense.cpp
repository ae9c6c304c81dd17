#include "nn/dense.hpp"

#include <cmath>

#include "tensor/gemm.hpp"

namespace mm {

DenseLayer::DenseLayer(size_t inDim, size_t outDim, Activation act_,
                       Rng &rng)
    : weights(outDim, inDim), bias(1, outDim), dWeights(outDim, inDim),
      dBias(1, outDim), act(act_)
{
    MM_ASSERT(inDim > 0 && outDim > 0, "degenerate dense layer");
    // He for ReLU, Xavier otherwise.
    double stddev = act == Activation::ReLU
                        ? std::sqrt(2.0 / double(inDim))
                        : std::sqrt(1.0 / double(inDim));
    for (size_t i = 0; i < weights.size(); ++i)
        weights.data()[i] = float(rng.gaussian(0.0, stddev));
}

const Matrix &
DenseLayer::forward(const Matrix &x)
{
    MM_ASSERT(x.cols() == inDim(), "dense input width mismatch");
    cachedIn = x;
    cachedOut.ensureShape(x.rows(), outDim());
    gemm(false, true, 1.0f, x, weights, packedFwd.get(), 0.0f, cachedOut,
         gemmPool);
    applyBiasActivation(act, bias, cachedOut);
    return cachedOut;
}

Matrix
DenseLayer::backward(const Matrix &dOut)
{
    Matrix dIn;
    backwardInto(dOut, dIn);
    return dIn;
}

void
DenseLayer::backwardParams(const Matrix &dOut)
{
    MM_ASSERT(dOut.rows() == cachedOut.rows()
                  && dOut.cols() == cachedOut.cols(),
              "dense backward shape mismatch");
    // dZ = dOut * act'(out) and dB += column-sum(dZ), one fused pass.
    applyActivationGradBias(act, cachedOut, dOut, scratch, &dBias);

    // dW += dZ^T * x
    gemm(true, false, 1.0f, scratch, cachedIn, 1.0f, dWeights, gemmPool);
}

void
DenseLayer::backwardInto(const Matrix &dOut, Matrix &dIn)
{
    backwardParams(dOut);
    inputGradGemm(dIn);
}

void
DenseLayer::inputGradientInto(const Matrix &dOut, Matrix &dIn)
{
    MM_ASSERT(dOut.rows() == cachedOut.rows()
                  && dOut.cols() == cachedOut.cols(),
              "dense backward shape mismatch");
    applyActivationGradBias(act, cachedOut, dOut, scratch, nullptr);
    inputGradGemm(dIn);
}

void
DenseLayer::inputGradGemm(Matrix &dIn)
{
    // dX = dZ * W
    dIn.ensureShape(scratch.rows(), inDim());
    gemm(false, false, 1.0f, scratch, weights, packedDx.get(), 0.0f, dIn,
         gemmPool);
}

void
DenseLayer::freeze()
{
    packedFwd = std::make_shared<const PackedB>(weights, true);
    packedDx = std::make_shared<const PackedB>(weights, false);
}

void
DenseLayer::thaw()
{
    packedFwd.reset();
    packedDx.reset();
}

void
DenseLayer::zeroGrad()
{
    dWeights.zero();
    dBias.zero();
}

} // namespace mm
