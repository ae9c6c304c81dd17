/**
 * @file
 * Fully-connected layer with fused activation.
 */
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "tensor/matrix.hpp"

namespace mm {

class PackedB;
class ThreadPool;

/**
 * y = act(x * W^T + b).
 *
 * Weights are stored out x in. The layer caches its input and output
 * during forward so backward can form weight gradients and the input
 * gradient (the latter is what makes the surrogate differentiable with
 * respect to candidate mappings, the core mechanism of the paper).
 * A frozen layer (freeze()) keeps W pre-packed for its GEMMs.
 */
class DenseLayer
{
  public:
    /**
     * He-initialize (ReLU) or Xavier-initialize (otherwise) the weights.
     */
    DenseLayer(size_t inDim, size_t outDim, Activation act, Rng &rng);

    /** Forward pass; result stays valid until the next forward. */
    const Matrix &forward(const Matrix &x);

    /**
     * Backward pass from dL/dy (post-activation). Accumulates dW, dB and
     * returns dL/dx.
     */
    Matrix backward(const Matrix &dOut);

    /**
     * Allocation-free backward: writes dL/dx into @p dIn (reshaped as
     * needed). @p dIn must not alias @p dOut.
     */
    void backwardInto(const Matrix &dOut, Matrix &dIn);

    /**
     * Parameters-only backward: accumulates dW and dB exactly as
     * backwardInto does but skips the dL/dx GEMM. For the first layer
     * of a training step, whose input gradient nothing reads.
     */
    void backwardParams(const Matrix &dOut);

    /**
     * Input-gradient-only backward: writes dL/dx into @p dIn bitwise as
     * backwardInto does, without touching dW or dB. @p dIn must not
     * alias @p dOut.
     */
    void inputGradientInto(const Matrix &dOut, Matrix &dIn);

    /**
     * Pack W once for the forward and input-gradient GEMMs (see
     * PackedB); results stay bitwise those of the unpacked layer.
     * Copies share the packs. Writing weights afterwards requires
     * thaw() first, or the packs go stale.
     */
    void freeze();

    /** Drop the packs (the next GEMMs pack W per call again). */
    void thaw();

    bool frozen() const { return packedFwd != nullptr; }

    /** Clear accumulated gradients. */
    void zeroGrad();

    /**
     * Use @p pool for the layer's GEMMs (nullptr = serial). Results are
     * bitwise identical at any lane count.
     */
    void setPool(ThreadPool *pool) { gemmPool = pool; }

    size_t inDim() const { return weights.cols(); }
    size_t outDim() const { return weights.rows(); }
    Activation activation() const { return act; }

    Matrix weights; ///< out x in
    Matrix bias;    ///< 1 x out
    Matrix dWeights;
    Matrix dBias;

  private:
    /** dL/dx = dZ * W from the pre-activation gradient in scratch. */
    void inputGradGemm(Matrix &dIn);

    Activation act;
    ThreadPool *gemmPool = nullptr; ///< not owned; nullptr = serial
    std::shared_ptr<const PackedB> packedFwd; ///< W for x * W^T
    std::shared_ptr<const PackedB> packedDx;  ///< W for dZ * W
    Matrix cachedIn;
    Matrix cachedOut;
    Matrix scratch; ///< pre-activation gradient workspace
};

} // namespace mm
