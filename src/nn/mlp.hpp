/**
 * @file
 * Multi-layer perceptron.
 *
 * The differentiable function approximator used both as the paper's
 * surrogate cost model (Section 4.1) and as the actor/critic networks of
 * the DDPG baseline (Appendix A). Besides the usual weight gradients,
 * backward() returns the gradient with respect to the *input* — the
 * quantity Phase 2 descends on. inputGradient() forms only that, and a
 * frozen network (freeze()) reads its weights pre-packed: the inference
 * path of the trained surrogate.
 */
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/dense.hpp"

namespace mm {

class ParallelContext;

/** Width and nonlinearity of one MLP layer. */
struct LayerSpec
{
    size_t width;
    Activation act;
};

/** A stack of DenseLayers with value semantics (copyable for target nets). */
class Mlp
{
  public:
    /** Build from input width and per-layer specs; weights drawn from rng. */
    Mlp(size_t inputDim, const std::vector<LayerSpec> &specs, Rng &rng);

    /** Forward pass over a batch (rows = samples). */
    const Matrix &forward(const Matrix &x);

    /**
     * Backward pass from dL/d(output); accumulates weight gradients and
     * returns dL/d(input). Must follow a forward() on the same batch.
     */
    Matrix backward(const Matrix &dOut);

    /**
     * Allocation-free backward: returns dL/d(input) as a reference to an
     * internal workspace, valid until the next backward call. The hot
     * path for Phase-2 batched gradient queries.
     */
    const Matrix &backwardInPlace(const Matrix &dOut);

    /**
     * Training backward: accumulates every layer's weight gradients,
     * bitwise as backwardInPlace does, without forming dL/d(input) (the
     * first layer's input-gradient GEMM is skipped).
     */
    void backwardParams(const Matrix &dOut);

    /**
     * dL/d(input) only, bitwise as backwardInPlace returns it, with no
     * weight-gradient GEMM and no dW/dB accumulation. Same workspace
     * and lifetime as backwardInPlace. Must follow a forward() on the
     * same batch.
     */
    const Matrix &inputGradient(const Matrix &dOut);

    /**
     * Pack every layer's weights once for the forward and
     * input-gradient GEMMs (bitwise the unpacked results). Eager, so
     * copies made afterwards share the packs and never pack. params(),
     * softUpdateFrom and copyParamsFrom drop the packs, since they hand
     * out or write the weights.
     */
    void freeze();

    bool frozen() const { return layers.front().frozen(); }

    /** Clear all accumulated gradients. */
    void zeroGrad();

    /**
     * Run every layer's GEMMs on @p ctx's pool (nullptr = serial).
     * Deterministic: results are bitwise identical at any lane count.
     * Copies of the network share the pool pointer, so the context must
     * outlive them all (or be reset with nullptr first).
     */
    void setParallel(ParallelContext *ctx);

    /**
     * Mutable views of every parameter / gradient matrix, in order.
     * params() unfreezes the network (the caller may write weights).
     */
    std::vector<Matrix *> params();
    std::vector<Matrix *> grads();

    size_t inputDim() const { return inDim; }
    size_t outputDim() const { return layers.back().outDim(); }
    size_t layerCount() const { return layers.size(); }
    const DenseLayer &layer(size_t i) const { return layers.at(i); }

    /** Total number of scalar parameters. */
    size_t paramCount() const;

    /** Polyak averaging: this = tau * src + (1 - tau) * this. */
    void softUpdateFrom(const Mlp &src, float tau);

    /** Hard copy of parameters from a same-topology network. */
    void copyParamsFrom(const Mlp &src);

    /** Serialize topology + weights. */
    void save(std::ostream &os) const;

    /** Deserialize a network written by save(). */
    static Mlp load(std::istream &is);

  private:
    /**
     * Backward through every layer. Accumulates weight gradients when
     * @p weightGrads. Returns dL/d(input), owned by a workspace, when
     * @p inputGrad; otherwise skips the first layer's dL/dx GEMM and
     * returns nullptr.
     */
    const Matrix *backwardLayers(const Matrix &dOut, bool weightGrads,
                                 bool inputGrad);

    /** Drop every layer's weight packs. */
    void thaw();

    size_t inDim;
    std::vector<DenseLayer> layers;
    Matrix gradPing; ///< backward ping-pong workspace
    Matrix gradPong;
};

} // namespace mm
