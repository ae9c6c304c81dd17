#include "common/factorization.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "common/mutex.hpp"
#include "common/string_util.hpp"

namespace mm {

std::vector<int64_t>
divisors(int64_t n)
{
    MM_ASSERT(n >= 1, "divisors of non-positive number");
    std::vector<int64_t> small, large;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            small.push_back(d);
            if (d != n / d)
                large.push_back(n / d);
        }
    }
    small.insert(small.end(), large.rbegin(), large.rend());
    return small;
}

FactorizationTable::FactorizationTable(int64_t bound_, int slots_,
                                       int64_t maxFactor_)
    : bound(bound_), slots(slots_),
      padLimit(bound_ == 1
                   ? 1
                   : bound_ + std::max<int64_t>(1, bound_ / 4))
{
    maxFactor = maxFactor_ > 0 ? std::min(maxFactor_, padLimit) : padLimit;
    MM_ASSERT(bound >= 1, "bound must be positive");
    MM_ASSERT(slots >= 1 && slots <= kMaxFactorSlots,
              "slots outside [1, kMaxFactorSlots]");
    const size_t width = size_t(padLimit) + 1;

    // Divisor lists for every possible product value, concatenated:
    // count each p's divisors, then fill in increasing d. Only divisors
    // a slot may take (<= maxFactor) are listed.
    divStart.assign(width + 1, 0);
    for (int64_t d = 1; d <= maxFactor; ++d)
        for (int64_t p = d; p <= padLimit; p += d)
            ++divStart[size_t(p) + 1];
    for (size_t p = 1; p <= width; ++p)
        divStart[p] += divStart[p - 1];
    divFlat.resize(divStart[width]);
    std::vector<uint32_t> fill(divStart.begin(), divStart.end() - 1);
    for (int64_t d = 1; d <= maxFactor; ++d)
        for (int64_t p = d; p <= padLimit; p += d)
            divFlat[fill[size_t(p)]++] = {int32_t(d), int32_t(p / d)};

    // ways(s, p): ordered s-tuples of factors in [1, maxFactor] with
    // product exactly p.
    waysFlat.assign((size_t(slots) + 1) * width, 0);
    waysFlat[1] = 1; // ways(0, 1)
    for (int s = 1; s <= slots; ++s) {
        for (int64_t p = 1; p <= padLimit; ++p) {
            int64_t acc = 0;
            for (const Divisor &d : divisorsOf(p))
                acc += ways(s - 1, d.cofactor);
            waysFlat[size_t(s) * width + size_t(p)] = acc;
        }
    }

    total = 0;
    for (int64_t p = bound; p <= padLimit; ++p) {
        total += ways(slots, p);
        cumWays.push_back(total);
    }
    MM_ASSERT(total > 0, strCat("no legal factorization for bound=", bound,
                                " slots=", slots));

    logOf.assign(width, 0.0);
    for (int64_t v = 1; v <= padLimit; ++v)
        logOf[size_t(v)] = std::log(double(v));
    minLegal = bound;
    while (ways(slots, minLegal) == 0)
        ++minLegal;
    maxLegal = padLimit;
    while (ways(slots, maxLegal) == 0)
        --maxLegal;
}

void
FactorizationTable::sample(Rng &rng, std::span<int64_t> out) const
{
    MM_ASSERT(out.size() == size_t(slots), "factor tuple arity mismatch");
    // Pick the product proportionally to its tuple count (the first
    // product whose cumulative count exceeds the draw), then unwind the
    // DP to pick each factor with the correct conditional probability.
    // The search is a branch-free upper_bound: the draw makes every
    // comparison a coin flip, which a branch pays for in
    // mispredictions. The answer stays in [first, first + len).
    const int64_t target = rng.uniformInt(0, total - 1);
    const int64_t *first = cumWays.data();
    for (size_t len = cumWays.size(); len > 1;) {
        const size_t half = len / 2;
        first = first[half - 1] <= target ? first + half : first;
        len -= half;
    }
    int64_t rem = bound + (first - cumWays.data());

    for (int s = slots; s > 1; --s) {
        int64_t t = rng.uniformInt(0, ways(s, rem) - 1);
        for (const Divisor &d : divisorsOf(rem)) {
            int64_t sub = ways(s - 1, d.cofactor);
            if (t < sub) {
                out[size_t(s) - 1] = d.f;
                rem = d.cofactor;
                break;
            }
            t -= sub;
        }
    }
    // One tuple is left for the first slot: the whole remainder. Its
    // draw over that single tuple still happens, keeping the Rng stream
    // of a scan that draws once per slot.
    MM_ASSERT(ways(1, rem) == 1, "factor sampling failed to consume product");
    rng.uniformInt(0, 0);
    out[0] = rem;
}

bool
FactorizationTable::contains(std::span<const int64_t> factors) const
{
    if (int(factors.size()) != slots)
        return false;
    int64_t product = 1;
    for (int64_t f : factors) {
        if (f < 1 || f > maxFactor)
            return false;
        product *= f;
        if (product > padLimit)
            return false;
    }
    return product >= bound && product <= padLimit;
}

void
FactorizationTable::repair(std::span<const int64_t> factors,
                           int adjustSlot, std::span<int64_t> out) const
{
    MM_ASSERT(adjustSlot >= 0 && adjustSlot < slots, "bad adjust slot");
    MM_ASSERT(out.size() == size_t(slots), "factor tuple arity mismatch");
    std::array<int64_t, kMaxFactorSlots> clampedBuf{};
    const std::span<int64_t> clamped(clampedBuf.data(), size_t(slots));
    for (size_t s = 0; s < clamped.size(); ++s)
        clamped[s] = s < factors.size()
                         ? std::clamp<int64_t>(factors[s], 1, maxFactor)
                         : 1;
    if (contains(clamped)) {
        std::copy(clamped.begin(), clamped.end(), out.begin());
        return;
    }

    // Pull the product to the legal product closest in log space; a
    // legal one (ways(slots, q) > 0) guarantees the greedy slot-by-slot
    // reconstruction below cannot get stuck. Every clamped factor is
    // legal, so the clamped product p failed only the window, and all
    // legal products lie on one side of it: the closest is the smallest
    // when p < bound, the largest when p > padLimit. (The running
    // product stops at bound, so it cannot overflow.)
    int64_t product = 1;
    for (int64_t f : clamped) {
        product *= f;
        if (product >= bound)
            break;
    }
    const int64_t target = product < bound ? minLegal : maxLegal;

    // Greedily rebuild each slot near its clamped value, preferring to
    // spend the adjustment on adjustSlot by fixing it last.
    std::array<int, kMaxFactorSlots> slotOrder{};
    size_t n = 0;
    for (int s = 0; s < slots; ++s)
        if (s != adjustSlot)
            slotOrder[n++] = s;
    slotOrder[n++] = adjustSlot;

    std::array<int64_t, kMaxFactorSlots> fixed;
    fixed.fill(1);
    int64_t rem = target;
    for (size_t i = 0; i < n; ++i) {
        int slot = slotOrder[i];
        int remainingSlots = int(n - i) - 1;
        const double want = logOf[size_t(clamped[size_t(slot)])];
        const Divisor *best = nullptr;
        double bestD = std::numeric_limits<double>::infinity();
        for (const Divisor &d : divisorsOf(rem)) {
            if (remainingSlots > 0 && ways(remainingSlots, d.cofactor) == 0)
                continue;
            if (remainingSlots == 0 && d.cofactor != 1)
                continue;
            double dist = std::fabs(logOf[size_t(d.f)] - want);
            if (dist < bestD) {
                bestD = dist;
                best = &d;
            }
        }
        MM_ASSERT(best != nullptr, "repair reconstruction stuck");
        fixed[size_t(slot)] = best->f;
        rem = best->cofactor;
    }
    const std::span<const int64_t> result(fixed.data(), size_t(slots));
    MM_ASSERT(rem == 1 && contains(result),
              "repair produced illegal factorization");
    std::copy(result.begin(), result.end(), out.begin());
}

namespace {

/**
 * Process-wide factorization-table cache. Guarded by a mutex (and
 * compiler-checked as such): dataset-labeling lanes and batched
 * searchers sample concurrently, and the first draw for a new bound
 * may land on any lane. std::map never invalidates node references, so
 * a returned reference stays valid unguarded for program lifetime; hot
 * paths (MapSpace) resolve their tables once and keep the pointers.
 */
struct FactorTableCache
{
    Mutex mtx;
    std::map<std::tuple<int64_t, int, int64_t>, FactorizationTable>
        entries MM_GUARDED_BY(mtx);
};

FactorTableCache &
factorCache()
{
    static FactorTableCache cache;
    return cache;
}

} // namespace

const FactorizationTable &
factorTable(int64_t bound, int slots, int64_t maxFactor)
{
    FactorTableCache &cache = factorCache();
    auto key = std::make_tuple(bound, slots, maxFactor);
    MutexLock lock(cache.mtx);
    auto it = cache.entries.find(key);
    if (it == cache.entries.end()) {
        it = cache.entries
                 .emplace(std::piecewise_construct,
                          std::forward_as_tuple(key),
                          std::forward_as_tuple(bound, slots, maxFactor))
                 .first;
    }
    return it->second;
}

} // namespace mm
