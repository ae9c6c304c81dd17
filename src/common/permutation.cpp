#include "common/permutation.hpp"

#include <numeric>

namespace mm {

void
randomPerm(std::span<int> order, Rng &rng)
{
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
}

void
orderFromScores(std::span<const double> scores, std::span<int> order)
{
    MM_ASSERT(order.size() == scores.size(), "order/score arity mismatch");
    // Stable insertion sort: an element moves left only past strictly
    // greater scores, which for any NaN-free input is the permutation
    // std::stable_sort returns.
    for (size_t i = 0; i < order.size(); ++i) {
        const int dim = int(i);
        const double key = scores[i];
        size_t j = i;
        while (j > 0 && key < scores[size_t(order[j - 1])]) {
            order[j] = order[j - 1];
            --j;
        }
        order[j] = dim;
    }
}

bool
isPermutation(std::span<const int> order)
{
    MM_ASSERT(order.size() <= 64, "isPermutation supports at most 64 "
                                  "elements");
    uint64_t seen = 0;
    for (int v : order) {
        if (v < 0 || size_t(v) >= order.size())
            return false;
        const uint64_t bit = uint64_t(1) << unsigned(v);
        if (seen & bit)
            return false;
        seen |= bit;
    }
    return true;
}

double
factorial(int n)
{
    double f = 1.0;
    for (int i = 2; i <= n; ++i)
        f *= i;
    return f;
}

} // namespace mm
