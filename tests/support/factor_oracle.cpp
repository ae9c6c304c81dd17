#include "support/factor_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.hpp"

namespace mm {

FactorTableOracle::FactorTableOracle(int64_t bound_, int slots_,
                                     int64_t maxFactor_)
    : bound(bound_), slots(slots_),
      padLimit(bound_ == 1
                   ? 1
                   : bound_ + std::max<int64_t>(1, bound_ / 4))
{
    maxFactor = maxFactor_ > 0 ? std::min(maxFactor_, padLimit) : padLimit;
    MM_ASSERT(bound >= 1, "bound must be positive");
    MM_ASSERT(slots >= 1, "slots must be positive");

    // Divisor lists for every possible product value.
    divs.resize(size_t(padLimit) + 1);
    for (int64_t d = 1; d <= padLimit; ++d)
        for (int64_t p = d; p <= padLimit; p += d)
            divs[size_t(p)].push_back(int32_t(d));

    // ways[s][p]: ordered s-tuples of factors in [1, maxFactor] with
    // product exactly p.
    ways.assign(size_t(slots) + 1,
                std::vector<int64_t>(size_t(padLimit) + 1, 0));
    ways[0][1] = 1;
    for (int s = 1; s <= slots; ++s) {
        for (int64_t p = 1; p <= padLimit; ++p) {
            int64_t acc = 0;
            for (int32_t f : divs[size_t(p)]) {
                if (f > maxFactor)
                    break;
                acc += ways[size_t(s) - 1][size_t(p / f)];
            }
            ways[size_t(s)][size_t(p)] = acc;
        }
    }

    total = 0;
    for (int64_t p = bound; p <= padLimit; ++p)
        total += ways[size_t(slots)][size_t(p)];
    MM_ASSERT(total > 0, strCat("no legal factorization for bound=", bound,
                                " slots=", slots));
}

std::vector<int64_t>
FactorTableOracle::sample(Rng &rng) const
{
    // Pick the product proportionally to its tuple count, then unwind the
    // DP to pick each factor with the correct conditional probability.
    int64_t target = rng.uniformInt(0, total - 1);
    int64_t product = bound;
    for (int64_t p = bound; p <= padLimit; ++p) {
        int64_t w = ways[size_t(slots)][size_t(p)];
        if (target < w) {
            product = p;
            break;
        }
        target -= w;
    }

    std::vector<int64_t> factors(size_t(slots), 1);
    int64_t rem = product;
    for (int s = slots; s >= 1; --s) {
        int64_t w = ways[size_t(s)][size_t(rem)];
        int64_t t = rng.uniformInt(0, w - 1);
        for (int32_t f : divs[size_t(rem)]) {
            if (f > maxFactor)
                break;
            int64_t sub = ways[size_t(s) - 1][size_t(rem / f)];
            if (t < sub) {
                factors[size_t(s) - 1] = f;
                rem /= f;
                break;
            }
            t -= sub;
        }
    }
    MM_ASSERT(rem == 1, "factor sampling failed to consume product");
    return factors;
}

bool
FactorTableOracle::contains(std::span<const int64_t> factors) const
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

std::vector<int64_t>
FactorTableOracle::repair(std::span<const int64_t> factors,
                           int adjustSlot) const
{
    MM_ASSERT(adjustSlot >= 0 && adjustSlot < slots, "bad adjust slot");
    std::vector<int64_t> clamped(factors.begin(), factors.end());
    clamped.resize(size_t(slots), 1);
    for (auto &f : clamped)
        f = std::clamp<int64_t>(f, 1, maxFactor);
    if (contains(clamped))
        return clamped;

    // Choose the legal target product closest (in log space) to the
    // clamped tuple's product; ways[slots][q] > 0 guarantees the greedy
    // slot-by-slot reconstruction below cannot get stuck.
    double logP = 0.0;
    for (int64_t f : clamped)
        logP += std::log(double(f));
    int64_t target = -1;
    double bestDist = std::numeric_limits<double>::infinity();
    for (int64_t q = bound; q <= padLimit; ++q) {
        if (ways[size_t(slots)][size_t(q)] == 0)
            continue;
        double dist = std::fabs(std::log(double(q)) - logP);
        if (dist < bestDist) {
            bestDist = dist;
            target = q;
        }
    }
    MM_ASSERT(target > 0, "no feasible product in the pad window");

    // Greedily rebuild each slot near its clamped value, preferring to
    // spend the adjustment on adjustSlot by fixing it last.
    std::vector<int> slotOrder;
    for (int s = 0; s < slots; ++s)
        if (s != adjustSlot)
            slotOrder.push_back(s);
    slotOrder.push_back(adjustSlot);

    std::vector<int64_t> fixed(size_t(slots), 1);
    int64_t rem = target;
    for (size_t i = 0; i < slotOrder.size(); ++i) {
        int slot = slotOrder[i];
        int remainingSlots = int(slotOrder.size() - i) - 1;
        int64_t bestF = -1;
        double bestD = std::numeric_limits<double>::infinity();
        for (int32_t f : divs[size_t(rem)]) {
            if (f > maxFactor)
                break;
            if (remainingSlots > 0
                && ways[size_t(remainingSlots)][size_t(rem / f)] == 0)
                continue;
            if (remainingSlots == 0 && rem / f != 1)
                continue;
            double d = std::fabs(std::log(double(f))
                                 - std::log(double(clamped[size_t(slot)])));
            if (d < bestD) {
                bestD = d;
                bestF = f;
            }
        }
        MM_ASSERT(bestF > 0, "repair reconstruction stuck");
        fixed[size_t(slot)] = bestF;
        rem /= bestF;
    }
    MM_ASSERT(rem == 1 && contains(fixed),
              "repair produced illegal factorization");
    return fixed;
}

} // namespace mm
