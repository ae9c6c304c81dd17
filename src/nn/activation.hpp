/**
 * @file
 * Pointwise activation functions.
 *
 * Derivatives are computed from the activation *output*, which every
 * supported function permits; this halves the caching a layer must do.
 */
#pragma once

#include <cstdint>

#include "tensor/matrix.hpp"

namespace mm {

/** Supported pointwise nonlinearities. */
enum class Activation : uint8_t { Identity = 0, ReLU = 1, Tanh = 2 };

/** Apply @p act elementwise in place. */
void applyActivation(Activation act, Matrix &m);

/**
 * Multiply @p grad elementwise by act'(z) expressed through the cached
 * activation output @p out (grad <- grad * act'(out)).
 */
void applyActivationGrad(Activation act, const Matrix &out, Matrix &grad);

/**
 * Fused epilogue of a dense forward: m[r][c] = act(m[r][c] + bias[0][c])
 * in a single pass (one memory sweep instead of a bias pass plus an
 * activation pass).
 */
void applyBiasActivation(Activation act, const Matrix &bias, Matrix &m);

/**
 * Fused prologue of a dense backward: grad[r][c] = dOut[r][c] * act'(out)
 * and dBias[0][c] += grad[r][c], in a single pass (replaces a copy, an
 * activation-grad pass and a bias-reduction pass). @p grad is reshaped
 * to match @p dOut; rows are accumulated into @p dBias in row order, so
 * results are bitwise identical to the unfused sequence. With @p dBias
 * null only grad is formed (an input-gradient-only backward), bitwise
 * as with a bias.
 */
void applyActivationGradBias(Activation act, const Matrix &out,
                             const Matrix &dOut, Matrix &grad,
                             Matrix *dBias);

/** Human-readable name (serialization and diagnostics). */
const char *activationName(Activation act);

} // namespace mm
