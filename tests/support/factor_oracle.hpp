/**
 * @file
 * Factor-table oracle, kept out of the library: the linear-scan
 * sampler and log-loop repair that FactorizationTable replaced with
 * table lookups. Tests pin the library tables against it, tuple for
 * tuple and Rng state for Rng state.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace mm {

/**
 * The same legal-tuple space as FactorizationTable (products in
 * [bound, padLimit], factors in [1, maxFactor]), built with the same
 * DP, drawn and repaired the straightforward way.
 */
class FactorTableOracle
{
  public:
    FactorTableOracle(int64_t bound, int slots, int64_t maxFactor = -1);

    int64_t count() const { return total; }

    /** Product by linear scan over the window, then DP unwinding. */
    std::vector<int64_t> sample(Rng &rng) const;

    bool contains(std::span<const int64_t> factors) const;

    /** Closest legal product and factors in log space, std::log per
     * comparison. */
    std::vector<int64_t> repair(std::span<const int64_t> factors,
                                int adjustSlot) const;

    int64_t padLimitValue() const { return padLimit; }
    int64_t maxFactorValue() const { return maxFactor; }

  private:
    int64_t bound;
    int slots;
    int64_t maxFactor;
    int64_t padLimit;
    int64_t total;
    /** ways[s][p] = #ordered s-tuples with product exactly p. */
    std::vector<std::vector<int64_t>> ways;
    /** Divisor lists for all p in [1, padLimit]. */
    std::vector<std::vector<int32_t>> divs;
};

} // namespace mm
