#include "mapping/map_space.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/factorization.hpp"
#include "common/permutation.hpp"
#include "common/string_util.hpp"

namespace mm {

namespace {

int64_t
smallestPrimeFactor(int64_t n)
{
    MM_ASSERT(n >= 2, "no prime factor of < 2");
    for (int64_t p = 2; p * p <= n; ++p)
        if (n % p == 0)
            return p;
    return n;
}

/** L2 trip counts (L1 * spatial * L2) of @p m into @p buf. */
std::span<const int64_t>
extentsL2(const Mapping &m, std::array<int64_t, kMaxRank> &buf)
{
    const size_t d = m.rank();
    for (size_t i = 0; i < d; ++i)
        buf[i] = m.tiling[size_t(MemLevel::L1)][i] * m.spatial[i]
                 * m.tiling[size_t(MemLevel::L2)][i];
    return {buf.data(), d};
}

/** log10 of C(n, k). */
double
log10Choose(int64_t n, int64_t k)
{
    if (k < 0 || k > n)
        return -std::numeric_limits<double>::infinity();
    return (std::lgamma(double(n) + 1.0) - std::lgamma(double(k) + 1.0)
            - std::lgamma(double(n - k) + 1.0))
           / std::log(10.0);
}

} // namespace

MapSpace::MapSpace(const AcceleratorSpec &arch, const Problem &problem)
    : archSpec(&arch), prob(&problem)
{
    const size_t tensors = problem.algo->tensorCount();
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const MemLevelSpec &spec = arch.levels[size_t(lvl)];
        if (spec.banks < int(tensors))
            fatal(strCat("level ", spec.name, " has ", spec.banks,
                         " banks but the problem has ", tensors,
                         " tensors"));
        if (spec.capacityBytes / spec.banks < arch.wordBytes)
            fatal(strCat("level ", spec.name, " banks smaller than a word"));
    }
    if (arch.levels.size() != size_t(kNumMemLevels))
        fatal("accelerator must describe exactly L1, L2 and DRAM");
    if (problem.rank() > kMaxRank)
        fatal(strCat("problem ", problem.name, " has ", problem.rank(),
                     " dimensions; the map space supports at most ",
                     kMaxRank));

    for (int64_t bound : problem.bounds)
        tables.push_back(&factorTable(bound, kFactorSlots));
    for (size_t t = 0; t < tensors; ++t) {
        uint32_t mask = 0;
        for (size_t d = 0; d < problem.rank(); ++d)
            if (problem.algo->tensors[t].usesDim(int(d)))
                mask |= uint32_t(1) << d;
        tensorDims.push_back(mask);
    }
}

Mapping
MapSpace::randomValid(Rng &rng) const
{
    Mapping m;
    randomValid(rng, m);
    return m;
}

void
MapSpace::randomValid(Rng &rng, Mapping &m) const
{
    const size_t d = rank();
    for (auto &t : m.tiling)
        t.resize(d);
    m.spatial.resize(d);

    std::array<int64_t, kFactorSlots> f{};
    for (size_t i = 0; i < d; ++i) {
        tables[i]->sample(rng, f);
        m.tiling[size_t(MemLevel::L1)][i] = f[size_t(FactorSlot::L1)];
        m.spatial[i] = f[size_t(FactorSlot::Spatial)];
        m.tiling[size_t(MemLevel::L2)][i] = f[size_t(FactorSlot::L2)];
        m.tiling[size_t(MemLevel::DRAM)][i] = f[size_t(FactorSlot::DRAM)];
    }
    repairSpatial(m);

    for (auto &order : m.loopOrder) {
        order.resize(d);
        randomPerm(order, rng);
    }

    const size_t tensors = tensorCount();
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        auto &alloc = m.bufferAlloc[size_t(lvl)];
        alloc.assign(tensors, 1);
        int spare = archSpec->levels[size_t(lvl)].banks - int(tensors);
        for (int i = 0; i < spare; ++i)
            ++alloc[size_t(rng.uniformInt(0, int64_t(tensors) - 1))];
    }

    repairCapacity(m);
    MM_ASSERT(isMember(m), "randomValid produced invalid mapping: "
                               + validityError(m));
}

bool
MapSpace::isMember(const Mapping &m) const
{
    return validityError(m).empty();
}

std::string
MapSpace::validityError(const Mapping &m) const
{
    const size_t d = rank();
    for (const auto &t : m.tiling)
        if (t.size() != d)
            return "tiling arity mismatch";
    if (m.spatial.size() != d)
        return "spatial arity mismatch";

    for (size_t i = 0; i < d; ++i) {
        std::array<int64_t, kFactorSlots> f = {
            m.tiling[size_t(MemLevel::L1)][i], m.spatial[i],
            m.tiling[size_t(MemLevel::L2)][i],
            m.tiling[size_t(MemLevel::DRAM)][i]};
        if (!tables[i]->contains(f))
            return strCat("illegal factorization for dim ",
                          prob->algo->dimNames[i]);
    }

    if (m.usedPes() > archSpec->numPes)
        return strCat("spatial fan-out ", m.usedPes(), " exceeds ",
                      archSpec->numPes, " PEs");

    for (const auto &order : m.loopOrder) {
        if (order.size() != d || !isPermutation(order))
            return "loop order is not a permutation";
    }

    const size_t tensors = tensorCount();
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const auto &alloc = m.bufferAlloc[size_t(lvl)];
        if (alloc.size() != tensors)
            return "buffer allocation arity mismatch";
        int sum = 0;
        for (int banks : alloc) {
            if (banks < 1)
                return "tensor with no banks allocated";
            sum += banks;
        }
        if (sum > archSpec->levels[size_t(lvl)].banks)
            return strCat("allocation exceeds ",
                          archSpec->levels[size_t(lvl)].name, " banks");
    }

    const std::span<const int64_t> e1 = m.tiling[size_t(MemLevel::L1)];
    std::array<int64_t, kMaxRank> e2Buf{};
    const std::span<const int64_t> e2 = extentsL2(m, e2Buf);
    for (size_t t = 0; t < tensors; ++t) {
        if (tensorTileBytes(t, e1) > allocBytes(0, t, m))
            return strCat("tensor ", prob->algo->tensors[t].name,
                          " overflows its L1 allocation");
        if (tensorTileBytes(t, e2) > allocBytes(1, t, m))
            return strCat("tensor ", prob->algo->tensors[t].name,
                          " overflows its L2 allocation");
    }
    return "";
}

Mapping
MapSpace::project(const Mapping &raw) const
{
    Mapping m = raw;
    projectInPlace(m);
    return m;
}

void
MapSpace::projectInPlace(Mapping &m) const
{
    const size_t d = rank();
    const size_t tensors = tensorCount();

    // Arity repair: missing entries become unit factors / identity data.
    for (auto &t : m.tiling)
        t.resize(d, 1);
    m.spatial.resize(d, 1);

    // Per-dimension factorization repair (adjust the DRAM slot first).
    for (size_t i = 0; i < d; ++i) {
        std::array<int64_t, kFactorSlots> f = {
            m.tiling[size_t(MemLevel::L1)][i], m.spatial[i],
            m.tiling[size_t(MemLevel::L2)][i],
            m.tiling[size_t(MemLevel::DRAM)][i]};
        tables[i]->repair(f, int(FactorSlot::DRAM), f);
        m.tiling[size_t(MemLevel::L1)][i] = f[size_t(FactorSlot::L1)];
        m.spatial[i] = f[size_t(FactorSlot::Spatial)];
        m.tiling[size_t(MemLevel::L2)][i] = f[size_t(FactorSlot::L2)];
        m.tiling[size_t(MemLevel::DRAM)][i] = f[size_t(FactorSlot::DRAM)];
    }
    repairSpatial(m);

    // Loop-order repair: keep the first occurrence of each dimension,
    // then append missing dimensions in index order.
    std::array<double, kMaxRank> scoreBuf{};
    const std::span<double> score(scoreBuf.data(), d);
    for (auto &order : m.loopOrder) {
        for (size_t i = 0; i < d; ++i)
            score[i] = double(2 * d + i);
        for (size_t pos = 0; pos < order.size(); ++pos) {
            int dim = order[pos];
            if (dim >= 0 && size_t(dim) < d
                && score[size_t(dim)] >= double(2 * d))
                score[size_t(dim)] = double(pos);
        }
        order.resize(d);
        orderFromScores(score, order);
    }

    // Allocation repair: at least one bank each, shed from the largest.
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        const int banks = archSpec->levels[size_t(lvl)].banks;
        auto &alloc = m.bufferAlloc[size_t(lvl)];
        alloc.resize(tensors, 1);
        for (auto &a : alloc)
            a = std::clamp(a, 1, banks);
        auto sum = [&]() {
            return std::accumulate(alloc.begin(), alloc.end(), 0);
        };
        while (sum() > banks) {
            auto big = std::max_element(alloc.begin(), alloc.end());
            MM_ASSERT(*big > 1, "cannot shed banks below one per tensor");
            --*big;
        }
    }

    repairCapacity(m);
    MM_ASSERT(isMember(m),
              "projection produced invalid mapping: " + validityError(m));
}

void
MapSpace::repairSpatial(Mapping &m) const
{
    // Guard against callers handing in non-positive factors; with all
    // entries >= 1, a product above the PE budget guarantees a factor
    // above 1 to demote.
    for (auto &s : m.spatial)
        s = std::max<int64_t>(s, 1);
    while (m.usedPes() > archSpec->numPes) {
        size_t worst = 0;
        for (size_t i = 1; i < m.spatial.size(); ++i)
            if (m.spatial[i] > m.spatial[worst])
                worst = i;
        MM_ASSERT(m.spatial[worst] > 1, "spatial repair stuck");
        int64_t p = smallestPrimeFactor(m.spatial[worst]);
        m.spatial[worst] /= p;
        m.tiling[size_t(MemLevel::L2)][worst] *= p;
    }
}

void
MapSpace::repairCapacity(Mapping &m) const
{
    const size_t d = rank();
    const size_t tensors = tensorCount();

    // L1: shrink per-PE tiles by promoting factors to L2 (keeps L2
    // extents constant, so the passes below are independent).
    auto &l1 = m.tiling[size_t(MemLevel::L1)];
    for (size_t t = 0; t < tensors; ++t) {
        while (tensorTileBytes(t, l1) > allocBytes(0, t, m)) {
            size_t dim = size_t(-1);
            int64_t biggest = 1;
            for (size_t i = 0; i < d; ++i) {
                if (usesDim(t, i) && l1[i] > biggest) {
                    biggest = l1[i];
                    dim = i;
                }
            }
            MM_ASSERT(dim != size_t(-1),
                      "minimal tile exceeds an L1 bank");
            int64_t p = smallestPrimeFactor(biggest);
            l1[dim] /= p;
            m.tiling[size_t(MemLevel::L2)][dim] *= p;
        }
    }

    // L2: shrink staged tiles by promoting L2 factors (or, failing that,
    // spatial and then L1 factors) to DRAM.
    std::array<int64_t, kMaxRank> e2Buf{};
    for (size_t t = 0; t < tensors; ++t) {
        while (tensorTileBytes(t, extentsL2(m, e2Buf)) > allocBytes(1, t, m)) {
            auto promote = [&](std::vector<int64_t> &factors) {
                size_t dim = size_t(-1);
                int64_t biggest = 1;
                for (size_t i = 0; i < d; ++i) {
                    if (usesDim(t, i) && factors[i] > biggest) {
                        biggest = factors[i];
                        dim = i;
                    }
                }
                if (dim == size_t(-1))
                    return false;
                int64_t p = smallestPrimeFactor(biggest);
                factors[dim] /= p;
                m.tiling[size_t(MemLevel::DRAM)][dim] *= p;
                return true;
            };
            bool moved = promote(m.tiling[size_t(MemLevel::L2)])
                         || promote(m.spatial)
                         || promote(m.tiling[size_t(MemLevel::L1)]);
            MM_ASSERT(moved, "minimal tile exceeds an L2 bank");
        }
    }
}

double
MapSpace::log10Size() const
{
    double lg = 0.0;
    for (const FactorizationTable *table : tables)
        lg += std::log10(double(table->count()));
    lg += double(kNumMemLevels) * std::log10(factorial(int(rank())));
    for (int lvl = 0; lvl < kNumOnChipLevels; ++lvl) {
        int64_t banks = archSpec->levels[size_t(lvl)].banks;
        int64_t tensors = int64_t(tensorCount());
        lg += log10Choose(banks - 1, tensors - 1);
    }
    return lg;
}

double
MapSpace::tensorTileBytes(size_t t, std::span<const int64_t> extents) const
{
    return double(prob->algo->tileFootprint(t, extents))
           * archSpec->wordBytes;
}

double
MapSpace::allocBytes(int lvl, size_t t, const Mapping &m) const
{
    const MemLevelSpec &spec = archSpec->levels[size_t(lvl)];
    return spec.capacityBytes * double(m.bufferAlloc[size_t(lvl)].at(t))
           / double(spec.banks);
}

} // namespace mm
