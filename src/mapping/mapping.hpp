/**
 * @file
 * The mapping representation (Definition 2.1, instantiated per
 * Section 5.1.3).
 *
 * A mapping fixes, for every loop dimension of the problem:
 *   - temporal tile factors at L1, L2 and DRAM,
 *   - a spatial (cross-PE) factor,
 * plus a loop order per temporal level and a bank allocation per tensor
 * at each on-chip level. The four per-dimension factors multiply to the
 * padded dimension bound (within the [bound, 2*bound] padding window; see
 * common/factorization.hpp).
 *
 * Loop-nest structure implied by a mapping, outermost to innermost:
 *
 *   DRAM temporal block -> L2 temporal block -> spatial fan-out
 *     -> L1 temporal block -> MAC
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arch/accelerator.hpp"

namespace mm {

/** Per-dimension factor-slot indices, innermost first. */
enum class FactorSlot : int { L1 = 0, Spatial = 1, L2 = 2, DRAM = 3 };

/** Factor slots per dimension (L1, spatial, L2, DRAM). */
inline constexpr int kFactorSlots = 4;

/**
 * Most loop dimensions a problem may have (paper workloads: <= 7).
 * Map-space routines keep per-dimension scratch on the stack at this
 * size; MapSpace refuses larger problems.
 */
inline constexpr size_t kMaxRank = 16;

/** A point in the map space. */
struct Mapping
{
    /** tiling[lvl][d]: temporal trip count, lvl indexed by MemLevel. */
    std::array<std::vector<int64_t>, kNumMemLevels> tiling;

    /** spatial[d]: cross-PE parallelism factor. */
    std::vector<int64_t> spatial;

    /** loopOrder[lvl][i]: dimension at nest position i (0 = outermost). */
    std::array<std::vector<int>, kNumMemLevels> loopOrder;

    /** bufferAlloc[lvl][t]: banks for tensor t, lvl in {L1, L2}. */
    std::array<std::vector<int>, kNumOnChipLevels> bufferAlloc;

    /** Number of loop dimensions. */
    size_t rank() const { return spatial.size(); }

    /** Padded bound of dimension @p d: product of all four factors. */
    int64_t dimProduct(size_t d) const;

    /** Per-PE L1 tile trip counts (== tiling[L1]). */
    std::vector<int64_t> extentsL1() const;

    /** Trip counts through the spatial fan-out (L1 * spatial). */
    std::vector<int64_t> extentsSpatial() const;

    /** Trip counts through L2 (L1 * spatial * L2). */
    std::vector<int64_t> extentsL2() const;

    /** Full padded bounds (through DRAM). */
    std::vector<int64_t> extentsFull() const;

    /** Total spatial fan-out (number of PEs used). */
    int64_t usedPes() const;

    /** Structural equality. */
    bool operator==(const Mapping &other) const = default;
};

} // namespace mm
