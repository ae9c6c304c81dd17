/**
 * @file
 * Loop-order permutation helpers.
 *
 * A loop order over D dimensions is stored as `order[i] = dim at nest
 * position i` with position 0 outermost. The surrogate encodes an order as
 * per-dimension ranks (`rank[d] = position of dim d`), matching the
 * paper's Section 5.5 input representation; decoding arbitrary real-valued
 * scores back to a permutation is an argsort, so any gradient update still
 * decodes to a valid order.
 */
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"

namespace mm {

/** Fill @p order with a uniformly random permutation of {0..n-1}
 * (n = order.size(); a Fisher-Yates shuffle of the identity). */
void randomPerm(std::span<int> order, Rng &rng);

/**
 * Decode real-valued per-dimension scores into @p order (same length):
 * the dimension with the smallest score becomes the outermost loop.
 * Ties break on dimension index (a stable insertion sort), so decoding
 * is deterministic. Scores are compared with `<` only; a NaN score
 * compares false both ways, so the dimension stays where the scan
 * reaches it, and every input still yields one well-defined
 * permutation.
 */
void orderFromScores(std::span<const double> scores, std::span<int> order);

/** True iff @p order is a permutation of {0..n-1}; n <= 64 (loop orders
 * have at most MapSpace's kMaxRank entries). */
bool isPermutation(std::span<const int> order);

/** n! as a double (map-space size accounting; n is small). */
double factorial(int n);

} // namespace mm
