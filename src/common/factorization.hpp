/**
 * @file
 * Integer-factorization machinery for tile-size map spaces.
 *
 * A loop dimension of size `bound` is split across `slots` loop levels
 * (e.g. L1-temporal, spatial, L2-temporal, DRAM-temporal) as an ordered
 * tuple of integer factors. Following Timeloop's imperfect-factor handling,
 * a tuple is legal when the product lies in [bound, bound + max(1,
 * bound/4)]: mildly over-approximate ("padded") factorizations are
 * permitted — the ceil-division semantics of Timeloop's imperfect
 * factors — and the cost model charges for the padded iteration space.
 *
 * FactorizationTable precomputes a dynamic-programming count of legal
 * tuples which supports exactly-uniform sampling and map-space size
 * estimation. Tables are memoized globally (keyed by bound/slots), since
 * dataset generation draws millions of tuples. Every table is built in
 * full by its constructor and immutable afterwards, so concurrent draws
 * and repairs on one table need no lock.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace mm {

/** Most loop levels one dimension may split across (stack tuple size). */
inline constexpr int kMaxFactorSlots = 8;

/** All divisors of @p n in increasing order. */
std::vector<int64_t> divisors(int64_t n);

/**
 * Counting and uniform sampling of ordered factor tuples.
 *
 * Legal tuple: `slots` integers, each in [1, maxFactor], whose product p
 * satisfies bound <= p <= padLimit, where padLimit is bound + max(1,
 * bound/4) (and bound itself when bound == 1).
 */
class FactorizationTable
{
  public:
    /**
     * Build the DP table.
     *
     * @param bound     The loop-dimension size (>= 1).
     * @param slots     Number of loop levels the dimension splits across
     *                  (1..kMaxFactorSlots).
     * @param maxFactor Per-factor upper limit; defaults to the pad limit
     *                  (repair operations move whole factors between
     *                  slots, so a single slot may carry the full padded
     *                  bound).
     */
    FactorizationTable(int64_t bound, int slots, int64_t maxFactor = -1);

    /** Number of legal ordered tuples. */
    int64_t count() const { return total; }

    /**
     * Draw a legal tuple exactly uniformly at random into @p out
     * (slotCount() entries). Draws the product by binary search over
     * cumulative tuple counts, then unwinds the DP one slot at a time:
     * 1 + slots Rng draws, no allocation.
     */
    void sample(Rng &rng, std::span<int64_t> out) const;

    /** True iff @p factors is a legal tuple for this table. */
    bool contains(std::span<const int64_t> factors) const;

    /**
     * Deterministically repair an arbitrary tuple into a legal one in
     * @p out (slotCount() entries; may alias @p factors), preserving the
     * input as closely as possible (used by map-space projection).
     * Missing entries count as 1, and factors are clamped into
     * [1, maxFactor]; then the product is pulled to the legal product
     * closest in log space, spending the change on the designated
     * @p adjustSlot (outermost level by convention).
     */
    void repair(std::span<const int64_t> factors, int adjustSlot,
                std::span<int64_t> out) const;

    int64_t boundValue() const { return bound; }
    int slotCount() const { return slots; }
    int64_t maxFactorValue() const { return maxFactor; }
    int64_t padLimitValue() const { return padLimit; }

  private:
    /** #ordered s-tuples with product exactly p. */
    int64_t
    ways(int s, int64_t p) const
    {
        return waysFlat[size_t(s) * size_t(padLimit + 1) + size_t(p)];
    }

    /** A divisor f of some p, with p / f precomputed. */
    struct Divisor
    {
        int32_t f;
        int32_t cofactor;
    };

    /** Divisors of p that a slot may take (<= maxFactor), ascending. */
    std::span<const Divisor>
    divisorsOf(int64_t p) const
    {
        return {divFlat.data() + divStart[size_t(p)],
                divFlat.data() + divStart[size_t(p) + 1]};
    }

    int64_t bound;
    int slots;
    int64_t maxFactor;
    int64_t padLimit;
    int64_t total;
    /** ways(s, p), row-major over s in [0, slots], p in [0, padLimit]. */
    std::vector<int64_t> waysFlat;
    /** divisorsOf lists of every p in [1, padLimit], concatenated. */
    std::vector<Divisor> divFlat;
    std::vector<uint32_t> divStart;
    /** cumWays[i]: legal tuples with product in [bound, bound + i]. */
    std::vector<int64_t> cumWays;
    /** logOf[v] = std::log(double(v)) for v in [1, padLimit]. */
    std::vector<double> logOf;
    /** Smallest and largest products with at least one legal tuple. */
    int64_t minLegal;
    int64_t maxLegal;
};

/**
 * Global memoized access to factorization tables.
 *
 * Thread-safe: lookups serialize on an internal mutex (labeling lanes
 * and batched searchers build map spaces concurrently). The returned
 * reference stays valid for program lifetime. MapSpace resolves its
 * per-dimension tables once, in its constructor; per-step code reads
 * them from there and never re-enters the lock.
 */
const FactorizationTable &factorTable(int64_t bound, int slots,
                                      int64_t maxFactor = -1);

} // namespace mm
