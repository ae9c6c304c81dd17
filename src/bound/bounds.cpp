#include "bound/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/factorization.hpp"

namespace mm {

// ---------------------------------------------------------------------------
// PartialAssignment
// ---------------------------------------------------------------------------

PartialAssignment::PartialAssignment(size_t rank_) : dims(rank_)
{
    MM_ASSERT(rank_ <= kMaxCostRank, "rank exceeds cost-model limit");
    for (auto &f : fac)
        f = {1, 1, 1, 1};
}

size_t
PartialAssignment::fixedSlotCount() const
{
    size_t n = 0;
    for (size_t d = 0; d < dims; ++d)
        n += size_t(__builtin_popcount(slotMask[d]));
    return n;
}

void
PartialAssignment::fix(size_t d, FactorSlot s, int64_t value)
{
    MM_ASSERT(d < dims, "dimension out of range");
    MM_ASSERT(value >= 1, "factors are positive");
    slotMask[d] |= uint8_t(1u << int(s));
    fac[d][size_t(s)] = value;
}

void
PartialAssignment::fixDim(size_t d, const std::array<int64_t, kFactorSlots> &f)
{
    for (int s = 0; s < kFactorSlots; ++s)
        fix(d, FactorSlot(s), f[size_t(s)]);
}

PartialAssignment
PartialAssignment::levelPrefixOf(const Mapping &m, int levels)
{
    MM_ASSERT(levels >= 0 && levels <= kFactorSlots, "bad level count");
    PartialAssignment pa(m.rank());
    // Outermost-first decision order: DRAM, L2, Spatial, L1.
    const FactorSlot order[kFactorSlots] = {FactorSlot::DRAM, FactorSlot::L2,
                                            FactorSlot::Spatial,
                                            FactorSlot::L1};
    for (int l = 0; l < levels; ++l) {
        for (size_t d = 0; d < m.rank(); ++d) {
            switch (order[l]) {
            case FactorSlot::DRAM:
                pa.fix(d, FactorSlot::DRAM,
                       m.tiling[size_t(MemLevel::DRAM)][d]);
                break;
            case FactorSlot::L2:
                pa.fix(d, FactorSlot::L2, m.tiling[size_t(MemLevel::L2)][d]);
                break;
            case FactorSlot::Spatial:
                pa.fix(d, FactorSlot::Spatial, m.spatial[d]);
                break;
            case FactorSlot::L1:
                pa.fix(d, FactorSlot::L1, m.tiling[size_t(MemLevel::L1)][d]);
                break;
            }
        }
    }
    return pa;
}

PartialAssignment
PartialAssignment::dimPrefixOf(const Mapping &m, size_t dimCount)
{
    MM_ASSERT(dimCount <= m.rank(), "prefix longer than rank");
    PartialAssignment pa(m.rank());
    for (size_t d = 0; d < dimCount; ++d)
        pa.fixDim(d, {m.tiling[size_t(MemLevel::L1)][d], m.spatial[d],
                      m.tiling[size_t(MemLevel::L2)][d],
                      m.tiling[size_t(MemLevel::DRAM)][d]});
    return pa;
}

// ---------------------------------------------------------------------------
// BoundTables
// ---------------------------------------------------------------------------

BoundTables::BoundTables(const MapSpace &space_) : mapSpace(&space_)
{
    cost.build(space_);
    const AlgorithmSpec &algo = *space_.problem().algo;
    for (size_t t = 0; t < algo.tensorCount(); ++t) {
        // The reuse-limit (telescoping) form needs unit coefficients
        // and each loop dimension in at most one projection term of
        // the tensor; e.g. a halo term 2x + r would break
        // footprint(tile) * outer trips >= footprint(full).
        bool strong = true;
        uint32_t seen = 0;
        for (const TensorDim &dim : algo.tensors[t].dims) {
            for (const ProjTerm &term : dim) {
                if (term.coeff != 1 || (seen & (1u << term.dim)))
                    strong = false;
                seen |= 1u << term.dim;
            }
        }
        strongTensor[t] = strong;
    }
}

namespace {

/** Depth-first legal-tuple enumeration, lexicographic in slot order. */
void
enumerateTuples(int64_t bound, int64_t padLimit, int64_t maxFactor, int slot,
                int64_t product, std::array<int64_t, kFactorSlots> &cur,
                std::vector<std::array<int64_t, kFactorSlots>> &out)
{
    if (slot == kFactorSlots - 1) {
        const int64_t lo =
            std::max<int64_t>(1, (bound + product - 1) / product);
        const int64_t hi = std::min(maxFactor, padLimit / product);
        for (int64_t f = lo; f <= hi; ++f) {
            cur[size_t(slot)] = f;
            out.push_back(cur);
        }
        return;
    }
    const int64_t hi = std::min(maxFactor, padLimit / product);
    for (int64_t f = 1; f <= hi; ++f) {
        cur[size_t(slot)] = f;
        enumerateTuples(bound, padLimit, maxFactor, slot + 1, product * f,
                        cur, out);
    }
}

} // namespace

const std::vector<std::array<int64_t, kFactorSlots>> &
BoundTables::tuples(size_t d) const
{
    MM_ASSERT(d < cost.rank, "dimension out of range");
    auto &cache = tupleCache[d];
    if (!cache.empty())
        return cache;
    const FactorizationTable &table = mapSpace->dimTable(d);
    std::array<int64_t, kFactorSlots> cur{};
    enumerateTuples(table.boundValue(), table.padLimitValue(),
                    table.maxFactorValue(), 0, 1, cur, cache);
    MM_ASSERT(int64_t(cache.size()) == table.count(),
              "tuple enumeration disagrees with the factorization table");
    return cache;
}

int64_t
BoundTables::minBanksFor(int lvl, double tileBytes) const
{
    const int banks = cost.banks[lvl];
    const double cap = cost.capacityBytes[lvl];
    // Smallest a >= 1 with tileBytes <= cap * a / banks under the exact
    // double arithmetic of MapSpace::allocBytes; the float seed is
    // corrected by the loop, so rounding can never under-allocate.
    int64_t a =
        std::max<int64_t>(1, int64_t(std::floor(tileBytes * banks / cap)));
    while (a <= banks && cap * double(a) / double(banks) < tileBytes)
        ++a;
    return a; // may exceed banks: the caller treats that as infeasible
}

bool
BoundTables::assignMinimalBanks(Mapping &m) const
{
    const std::array<std::vector<int64_t>, kNumOnChipLevels> ext = {
        m.extentsL1(), m.extentsL2()};
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        m.bufferAlloc[size_t(lvl)].assign(cost.tensors, 1);
        int64_t used = 0;
        for (size_t t = 0; t < cost.tensors; ++t) {
            const int64_t a = minBanksFor(
                lvl, mapSpace->tensorTileBytes(t, ext[size_t(lvl)]));
            m.bufferAlloc[size_t(lvl)][t] = int(a);
            used += a;
        }
        if (used > cost.banks[lvl])
            return false;
    }
    return true;
}

PartialBound
BoundTables::bound(const PartialAssignment &pa) const
{
    MM_ASSERT(pa.rank() == cost.rank, "assignment rank mismatch");
    PartialBound out;

    // Per-dimension extent floors at the four residency points, the
    // guaranteed spatial product and its reachable ceiling.
    int64_t e1[kMaxCostRank], esp[kMaxCostRank], e2[kMaxCostRank],
        full[kMaxCostRank];
    double pesFixed = 1.0;
    double pesCap = 1.0;
    for (size_t d = 0; d < cost.rank; ++d) {
        const FactorizationTable &table = mapSpace->dimTable(d);
        const int64_t boundVal = table.boundValue();
        const int64_t padLimit = table.padLimitValue();
        const int64_t maxFactor = table.maxFactorValue();

        int64_t prodFixed = 1;
        int freeSlots = kFactorSlots;
        for (int s = 0; s < kFactorSlots; ++s) {
            if (!pa.fixed(d, FactorSlot(s)))
                continue;
            --freeSlots;
            const int64_t v = pa.factor(d, FactorSlot(s));
            if (v > maxFactor || prodFixed > padLimit / v) {
                out.feasible = false;
                return out;
            }
            prodFixed *= v;
        }
        // The free slots can reach any single multiplier in
        // [ceil(bound/prodFixed), floor(padLimit/prodFixed)]; an empty
        // range (or an all-fixed product below bound) has no legal
        // completion.
        const int64_t mLo = std::max<int64_t>(
            1, (boundVal + prodFixed - 1) / prodFixed);
        const int64_t mHi = padLimit / prodFixed;
        if (freeSlots == 0 ? prodFixed < boundVal : mLo > mHi) {
            out.feasible = false;
            return out;
        }
        full[d] = freeSlots == 0 ? prodFixed : prodFixed * mLo;

        const auto part = [&](uint8_t slots) {
            int64_t p = 1;
            for (int s = 0; s < kFactorSlots; ++s)
                if ((slots >> s & 1) && pa.fixed(d, FactorSlot(s)))
                    p *= pa.factor(d, FactorSlot(s));
            return p;
        };
        e1[d] = part(1u << int(FactorSlot::L1));
        esp[d] = part((1u << int(FactorSlot::L1))
                      | (1u << int(FactorSlot::Spatial)));
        e2[d] = part((1u << int(FactorSlot::L1))
                     | (1u << int(FactorSlot::Spatial))
                     | (1u << int(FactorSlot::L2)));

        if (pa.fixed(d, FactorSlot::Spatial)) {
            const double sp = double(pa.factor(d, FactorSlot::Spatial));
            pesFixed *= sp;
            pesCap *= sp;
        } else {
            const int64_t prodOther =
                part(uint8_t(0xF & ~(1u << int(FactorSlot::Spatial))));
            pesCap *= double(std::max<int64_t>(1, padLimit / prodOther));
        }
    }
    if (pesFixed > double(cost.numPes)) {
        out.feasible = false;
        return out;
    }
    const double pesUb = std::min(double(cost.numPes), pesCap);

    // Minimal bank demand at the extent floors: each tensor needs at
    // least ceil-to-bank of its floor tile at both on-chip levels, and
    // any completion only grows the tiles.
    const int64_t *onChipExt[kNumOnChipLevels] = {e1, e2};
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        int64_t need = 0;
        for (size_t t = 0; t < cost.tensors; ++t)
            need += minBanksFor(
                lvl, mapSpace->tensorTileBytes(
                         t, std::span<const int64_t>(onChipExt[lvl],
                                                     cost.rank)));
        if (need > cost.banks[lvl]) {
            out.feasible = false;
            return out;
        }
    }

    double macsLb = 1.0;
    for (size_t d = 0; d < cost.rank; ++d)
        macsLb *= double(full[d]);

    constexpr size_t iL1 = size_t(MemLevel::L1);
    constexpr size_t iL2 = size_t(MemLevel::L2);
    constexpr size_t iDram = size_t(MemLevel::DRAM);
    double words[kNumMemLevels] = {0.0, 0.0, 0.0};
    double noc = 0.0;
    for (size_t t = 0; t < cost.tensors; ++t) {
        // L1 refills of the form pes * rf_L1 cover every relevant
        // padded bound at least once — relevance-only, any projection.
        double refills = 1.0;
        for (size_t d = 0; d < cost.rank; ++d)
            if (mapSpace->tensorDimMask(t) >> d & 1)
                refills *= double(full[d]);

        const double f1 = double(cost.footprint(t, e1));
        const double deliveriesWeak = pesFixed * f1;
        if (strongTensor[t]) {
            // Reuse limit: every f_P * rf_P transfer moves at least the
            // full footprint at the extent floor.
            const double F = double(cost.footprint(t, full));
            const double deliveries = std::max(F, deliveriesWeak);
            words[iDram] += F;
            words[iL2] += cost.isOutput[t] ? F : 2.0 * F;
            words[iL1] += cost.isOutput[t] ? refills : deliveries + refills;
            noc += deliveries;
        } else {
            // Monotonicity only: footprints at the per-slot floors.
            const double f2 = double(cost.footprint(t, e2));
            const double fsp = double(cost.footprint(t, esp));
            words[iDram] += f2;
            words[iL2] += cost.isOutput[t] ? fsp : f2 + fsp;
            words[iL1] += cost.isOutput[t] ? refills
                                           : deliveriesWeak + refills;
            noc += deliveriesWeak;
        }
    }

    double energy = macsLb * cost.macEnergyPj + noc * cost.nocEnergyPerWordPj;
    for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl)
        energy += words[lvl] * cost.energyPerWordPj[lvl];

    double cycles = macsLb / (pesUb * cost.macsPerPePerCycle);
    for (size_t lvl = 0; lvl < kNumMemLevels; ++lvl) {
        double w = words[lvl];
        if (cost.perPe[lvl])
            w /= pesUb;
        cycles = std::max(cycles, w / cost.bandwidthWordsPerCycle[lvl]);
    }

    out.energyPj = energy;
    out.cycles = cycles;
    out.words = {words[0], words[1], words[2]};
    return out;
}

PartialBound
BoundTables::wholeProblem() const
{
    return bound(PartialAssignment(cost.rank));
}

} // namespace mm
