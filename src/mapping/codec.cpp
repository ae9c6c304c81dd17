#include "mapping/codec.hpp"

#include <cmath>

#include "common/permutation.hpp"

namespace mm {

namespace {

/**
 * llround(v) clamped to [1, hi]. Values llround cannot represent (NaN,
 * infinities, huge magnitudes) go to the nearer bound, NaN to 1, so
 * every real decodes the same way on every call.
 */
int64_t
roundClamped(double v, int64_t hi)
{
    if (!(v >= 1.0))
        return 1;
    if (v >= double(hi))
        return hi;
    return std::llround(v);
}

} // namespace

MappingCodec::MappingCodec(const MapSpace &space_)
    : space(&space_), rank(space_.rank()), tensors(space_.tensorCount())
{
    total = allocOffset() + allocCount();
}

std::vector<double>
MappingCodec::encode(const Mapping &m) const
{
    return encodeWithPid(m, space->problem());
}

void
MappingCodec::encode(const Mapping &m, std::span<double> out) const
{
    encodeWithPid(m, space->problem(), out);
}

std::vector<double>
MappingCodec::encodeWithPid(const Mapping &m, const Problem &pid) const
{
    std::vector<double> f(total);
    encodeWithPid(m, pid, f);
    return f;
}

void
MappingCodec::encodeWithPid(const Mapping &m, const Problem &pid,
                            std::span<double> f) const
{
    MM_ASSERT(m.rank() == rank, "mapping rank mismatch");
    MM_ASSERT(pid.rank() == rank, "problem rank mismatch");
    MM_ASSERT(f.size() == total, "feature arity mismatch");

    for (size_t d = 0; d < rank; ++d)
        f[pidOffset() + d] = double(pid.bounds[d]);

    // Tile factors, level-major: L1 block, then L2, then DRAM.
    const MemLevel order[] = {MemLevel::L1, MemLevel::L2, MemLevel::DRAM};
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
        for (size_t d = 0; d < rank; ++d)
            f[tilingOffset() + l * rank + d] =
                double(m.tiling[size_t(order[l])][d]);

    for (size_t d = 0; d < rank; ++d)
        f[spatialOffset() + d] = double(m.spatial[d]);

    // Loop orders as per-dimension ranks (rank of dim = its position).
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l) {
        const auto &loops = m.loopOrder[size_t(order[l])];
        MM_ASSERT(loops.size() == rank && isPermutation(loops),
                  "loop order is not a permutation");
        for (size_t pos = 0; pos < rank; ++pos)
            f[orderOffset() + l * rank + size_t(loops[pos])] = double(pos);
    }

    for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l)
        for (size_t t = 0; t < tensors; ++t)
            f[allocOffset() + l * tensors + t] =
                double(m.bufferAlloc[l][t]);
}

Mapping
MappingCodec::decode(std::span<const double> features) const
{
    Mapping m;
    decode(features, m);
    return m;
}

void
MappingCodec::decode(std::span<const double> features, Mapping &m) const
{
    MM_ASSERT(features.size() == total, "feature arity mismatch");
    const Problem &prob = space->problem();
    for (auto &t : m.tiling)
        t.resize(rank);
    m.spatial.resize(rank);

    auto roundFactor = [&](double v, size_t d) {
        return roundClamped(v, 2 * prob.bounds[d]);
    };

    const MemLevel order[] = {MemLevel::L1, MemLevel::L2, MemLevel::DRAM};
    for (size_t l = 0; l < size_t(kNumMemLevels); ++l)
        for (size_t d = 0; d < rank; ++d)
            m.tiling[size_t(order[l])][d] =
                roundFactor(features[tilingOffset() + l * rank + d], d);

    for (size_t d = 0; d < rank; ++d)
        m.spatial[d] = roundFactor(features[spatialOffset() + d], d);

    for (size_t l = 0; l < size_t(kNumMemLevels); ++l) {
        auto &loops = m.loopOrder[size_t(order[l])];
        loops.resize(rank);
        orderFromScores(features.subspan(orderOffset() + l * rank, rank),
                        loops);
    }

    for (size_t l = 0; l < size_t(kNumOnChipLevels); ++l) {
        auto &alloc = m.bufferAlloc[l];
        alloc.resize(tensors);
        for (size_t t = 0; t < tensors; ++t)
            alloc[t] = int(roundClamped(features[allocOffset()
                                                 + l * tensors + t],
                                        space->arch().levels[l].banks));
    }
    space->projectInPlace(m);
}

} // namespace mm
