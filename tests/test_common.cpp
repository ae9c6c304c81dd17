/**
 * @file
 * Unit and property tests for the common substrate: factorization
 * tables, permutations, statistics, RNG determinism and env parsing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <map>
#include <set>
#include <thread>

#include <sstream>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/factorization.hpp"
#include "common/parallel_context.hpp"
#include "common/permutation.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "support/factor_oracle.hpp"

namespace mm {
namespace {

/** One tuple drawn into a fresh vector. */
std::vector<int64_t>
draw(const FactorizationTable &table, Rng &rng)
{
    std::vector<int64_t> f(size_t(table.slotCount()));
    table.sample(rng, f);
    return f;
}

/** FactorizationTable::repair into a fresh vector. */
std::vector<int64_t>
repaired(const FactorizationTable &table, std::span<const int64_t> f,
         int adjustSlot)
{
    std::vector<int64_t> out(size_t(table.slotCount()));
    table.repair(f, adjustSlot, out);
    return out;
}

std::vector<int>
perm(int n, Rng &rng)
{
    std::vector<int> order(static_cast<size_t>(n));
    randomPerm(order, rng);
    return order;
}

std::vector<int>
orderOf(std::span<const double> scores)
{
    std::vector<int> order(scores.size());
    orderFromScores(scores, order);
    return order;
}

TEST(Divisors, SmallValues)
{
    EXPECT_EQ(divisors(1), (std::vector<int64_t>{1}));
    EXPECT_EQ(divisors(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisors(13), (std::vector<int64_t>{1, 13}));
}

/** Brute-force count of legal ordered tuples for cross-checking. */
int64_t
bruteCount(int64_t bound, int slots, int64_t maxFactor, int64_t padLimit)
{
    if (slots == 0)
        return 0;
    std::vector<int64_t> stack(size_t(slots), 1);
    int64_t count = 0;
    // Odometer over all tuples with entries in [1, maxFactor].
    while (true) {
        int64_t p = 1;
        for (int64_t f : stack)
            p *= f;
        if (p >= bound && p <= padLimit)
            ++count;
        size_t i = stack.size();
        while (i > 0) {
            --i;
            if (++stack[i] <= maxFactor)
                break;
            stack[i] = 1;
            if (i == 0)
                return count;
        }
    }
}

TEST(FactorizationTable, CountMatchesBruteForce)
{
    for (int64_t bound : {1, 2, 3, 5, 6, 8, 12, 16}) {
        for (int slots : {1, 2, 3, 4}) {
            FactorizationTable table(bound, slots);
            int64_t expect = bruteCount(bound, slots,
                                        table.maxFactorValue(),
                                        table.padLimitValue());
            EXPECT_EQ(table.count(), expect)
                << "bound=" << bound << " slots=" << slots;
        }
    }
}

TEST(FactorizationTable, BoundOneHasSingleTuple)
{
    FactorizationTable table(1, 4);
    EXPECT_EQ(table.count(), 1);
    Rng rng(7);
    auto f = draw(table, rng);
    EXPECT_EQ(f, (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(FactorizationTable, SamplesAreAlwaysLegal)
{
    Rng rng(42);
    for (int64_t bound : {3, 7, 28, 112, 256}) {
        const auto &table = factorTable(bound, 4);
        for (int i = 0; i < 200; ++i) {
            auto f = draw(table, rng);
            EXPECT_TRUE(table.contains(f)) << "bound=" << bound;
        }
    }
}

TEST(FactorizationTable, SamplingIsUniform)
{
    // chi-squared-style sanity: every legal tuple of a small space should
    // appear with roughly equal frequency.
    FactorizationTable table(6, 2);
    Rng rng(1);
    std::map<std::vector<int64_t>, int> hits;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        ++hits[draw(table, rng)];
    EXPECT_EQ(int64_t(hits.size()), table.count());
    double expect = double(draws) / double(table.count());
    for (const auto &[tuple, n] : hits) {
        EXPECT_NEAR(double(n), expect, 0.25 * expect)
            << join(tuple, "x");
    }
}

TEST(FactorizationTable, ContainsRejectsIllegal)
{
    FactorizationTable table(8, 3);
    // pad limit for bound 8: 8 + 8/4 = 10.
    EXPECT_EQ(table.padLimitValue(), 10);
    EXPECT_TRUE(table.contains(std::vector<int64_t>{2, 2, 2}));
    EXPECT_TRUE(table.contains(std::vector<int64_t>{9, 1, 1}));  // padded
    EXPECT_TRUE(table.contains(std::vector<int64_t>{5, 1, 2}));  // = 10
    EXPECT_FALSE(table.contains(std::vector<int64_t>{1, 1, 1})); // under
    EXPECT_FALSE(table.contains(std::vector<int64_t>{8, 1, 2})); // 16 > 10
    EXPECT_FALSE(table.contains(std::vector<int64_t>{0, 8, 1})); // f < 1
    EXPECT_FALSE(table.contains(std::vector<int64_t>{2, 2}));    // arity
}

TEST(FactorizationTable, RepairIsIdempotentOnLegalTuples)
{
    Rng rng(3);
    const auto &table = factorTable(28, 4);
    for (int i = 0; i < 100; ++i) {
        auto f = draw(table, rng);
        auto fixed = repaired(table, f, 3);
        EXPECT_EQ(fixed, f);
    }
}

TEST(FactorizationTable, RepairFixesArbitraryTuples)
{
    const auto &table = factorTable(28, 4);
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        std::vector<int64_t> f = {rng.uniformInt(-3, 80),
                                  rng.uniformInt(-3, 80),
                                  rng.uniformInt(-3, 80),
                                  rng.uniformInt(-3, 80)};
        auto fixed = repaired(table, f, 3);
        EXPECT_TRUE(table.contains(fixed)) << join(f, ",");
    }
}

TEST(FactorizationTable, RepairPrefersAdjustSlot)
{
    // A tuple that only under-shoots should be fixed by raising the
    // chosen slot, leaving others untouched.
    FactorizationTable table(32, 4);
    auto fixed = repaired(table, std::vector<int64_t>{2, 1, 2, 1}, 3);
    EXPECT_EQ(fixed[0], 2);
    EXPECT_EQ(fixed[1], 1);
    EXPECT_EQ(fixed[2], 2);
    EXPECT_GE(fixed[3] * 4, 32);
}

class FactorizationSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int>>
{};

TEST_P(FactorizationSweep, SampleContainsRepairAgree)
{
    auto [bound, slots] = GetParam();
    const auto &table = factorTable(bound, slots);
    Rng rng(uint64_t(bound * 31 + slots));
    for (int i = 0; i < 50; ++i) {
        auto f = draw(table, rng);
        ASSERT_TRUE(table.contains(f));
        EXPECT_EQ(repaired(table, f, slots - 1), f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, FactorizationSweep,
    ::testing::Combine(::testing::Values<int64_t>(2, 3, 13, 27, 110, 384,
                                                  1024, 4096),
                       ::testing::Values(2, 3, 4)));

/**
 * The table sampler against the linear-scan oracle over every bound
 * 1..700 and 1-4 slots: the same tuple from the same seed, and the Rng
 * left in the same state (its next raw() draw agrees), over 200 seeds.
 */
TEST(FactorizationOracle, SampleEqualsOracleTupleAndRngState)
{
    int64_t mismatches = 0;
    std::string first;
    for (int64_t bound = 1; bound <= 700; ++bound) {
        for (int slots = 1; slots <= 4; ++slots) {
            const FactorizationTable table(bound, slots);
            const FactorTableOracle oracle(bound, slots);
            ASSERT_EQ(table.count(), oracle.count())
                << "bound=" << bound << " slots=" << slots;
            for (uint64_t seed = 0; seed < 200; ++seed) {
                Rng a(seed), b(seed);
                const auto got = draw(table, a);
                const auto want = oracle.sample(b);
                if (got != want || a.raw() != b.raw()) {
                    if (mismatches++ == 0)
                        first = strCat("bound=", bound, " slots=", slots,
                                       " seed=", seed, " got ",
                                       join(got, "x"), " want ",
                                       join(want, "x"));
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0) << first;

    // Capped factors (maxFactor below the pad limit), both routines.
    for (int64_t bound = 1; bound <= 120; ++bound) {
        for (int64_t cap : {2, 3, 7, 16}) {
            for (int slots = 1; slots <= 4; ++slots) {
                const int64_t pad =
                    bound == 1 ? 1 : bound + std::max<int64_t>(1, bound / 4);
                if (bruteCount(bound, slots, std::min(cap, pad), pad) == 0)
                    continue; // no legal tuple: the tables refuse it
                const FactorizationTable table(bound, slots, cap);
                const FactorTableOracle oracle(bound, slots, cap);
                for (uint64_t seed = 0; seed < 20; ++seed) {
                    Rng a(seed), b(seed);
                    EXPECT_EQ(draw(table, a), oracle.sample(b));
                    EXPECT_EQ(a.raw(), b.raw());
                    std::vector<int64_t> f(static_cast<size_t>(slots));
                    for (auto &v : f)
                        v = a.uniformInt(-2, 2 * bound);
                    EXPECT_EQ(repaired(table, f, slots - 1),
                              oracle.repair(f, slots - 1));
                }
            }
        }
    }
}

/**
 * repair against the std::log-per-comparison oracle on arbitrary
 * tuples: entries of 0, negative, in range, above padLimit and huge,
 * arities short and long, every adjust slot.
 */
TEST(FactorizationOracle, RepairEqualsOracleOnArbitraryTuples)
{
    Rng rng(2024);
    int64_t mismatches = 0;
    std::string first;
    std::vector<std::pair<int64_t, int>> shapes;
    for (int64_t bound = 1; bound <= 700; ++bound)
        for (int slots = 1; slots <= 4; ++slots)
            shapes.emplace_back(bound, slots);
    // A few paper-scale bounds, whose pad windows are far wider.
    for (int64_t bound : {1024, 2048, 4095, 4096, 12544})
        shapes.emplace_back(bound, 4);
    for (const auto &[bound, slots] : shapes) {
        const FactorizationTable table(bound, slots);
        const FactorTableOracle oracle(bound, slots);
        const int64_t pad = oracle.padLimitValue();
        for (int i = 0; i < 24; ++i) {
            size_t arity = size_t(slots);
            if (i % 8 == 6)
                arity = size_t(rng.uniformInt(0, slots));
            else if (i % 8 == 7)
                arity = size_t(slots) + 2;
            std::vector<int64_t> f(arity);
            for (auto &v : f) {
                switch (rng.uniformInt(0, 5)) {
                  case 0: v = 0; break;
                  case 1: v = rng.uniformInt(-100, -1); break;
                  case 2: v = rng.uniformInt(pad + 1, 3 * pad + 1); break;
                  case 3: v = std::numeric_limits<int64_t>::max(); break;
                  default: v = rng.uniformInt(1, pad); break;
                }
            }
            const int adjust = int(rng.uniformInt(0, slots - 1));
            const auto got = repaired(table, f, adjust);
            const auto want = oracle.repair(f, adjust);
            if (got != want && mismatches++ == 0)
                first = strCat("bound=", bound, " slots=", slots,
                               " in ", join(f, ","), " got ",
                               join(got, "x"), " want ",
                               join(want, "x"));
        }
    }
    EXPECT_EQ(mismatches, 0) << first;
}

TEST(FactorizationTable, RepairMayWriteOverItsInput)
{
    const FactorizationTable table(96, 4);
    std::vector<int64_t> f = {7, 0, 500, -3};
    const auto want = repaired(table, f, 3);
    table.repair(f, 3, f);
    EXPECT_EQ(f, want);
    EXPECT_TRUE(table.contains(f));
}

TEST(Permutation, RoundTrip)
{
    Rng rng(5);
    for (int n : {1, 2, 5, 7}) {
        for (int i = 0; i < 20; ++i) {
            auto order = perm(n, rng);
            ASSERT_TRUE(isPermutation(order));
            // Per-dimension ranks (the codec's encoding) decode back.
            std::vector<double> ranks(order.size());
            for (size_t pos = 0; pos < order.size(); ++pos)
                ranks[size_t(order[pos])] = double(pos);
            EXPECT_EQ(orderOf(ranks), order);
        }
    }
}

TEST(Permutation, OrderFromScoresSortsAscending)
{
    std::vector<double> scores = {2.5, -1.0, 0.25};
    auto order = orderOf(scores);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(Permutation, OrderFromScoresBreaksTiesStably)
{
    std::vector<double> scores = {1.0, 1.0, 0.0};
    auto order = orderOf(scores);
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

/** orderFromScores against std::stable_sort, ties included. */
TEST(Permutation, OrderFromScoresEqualsStableSort)
{
    Rng rng(17);
    for (int trial = 0; trial < 2000; ++trial) {
        const size_t n = size_t(rng.uniformInt(0, 16));
        std::vector<double> scores(n);
        for (auto &v : scores) {
            // Few distinct values so ties are common; signed zeros and
            // infinities compare like any other non-NaN value.
            switch (rng.uniformInt(0, 7)) {
              case 0: v = -0.0; break;
              case 1: v = 0.0; break;
              case 2: v = std::numeric_limits<double>::infinity(); break;
              case 3: v = -std::numeric_limits<double>::infinity(); break;
              default: v = double(rng.uniformInt(-3, 3)) * 0.5; break;
            }
        }
        std::vector<int> want(n);
        std::iota(want.begin(), want.end(), 0);
        std::stable_sort(want.begin(), want.end(), [&](int a, int b) {
            return scores[size_t(a)] < scores[size_t(b)];
        });
        EXPECT_EQ(orderOf(scores), want) << join(scores, ",");
    }
}

/** NaN scores (a diverged surrogate or actor) still decode to one
 * well-defined permutation. */
TEST(Permutation, OrderFromScoresWithNanIsAPermutation)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Rng rng(23);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<double> scores(7);
        for (auto &v : scores)
            v = rng.bernoulli(0.4) ? nan : rng.uniformReal(-2.0, 2.0);
        const auto order = orderOf(scores);
        EXPECT_TRUE(isPermutation(order));
        EXPECT_EQ(orderOf(scores), order);
    }
    EXPECT_EQ(orderOf(std::vector<double>{nan, nan, nan}),
              (std::vector<int>{0, 1, 2}));
}

TEST(Permutation, IsPermutationRejectsDuplicatesAndRange)
{
    EXPECT_TRUE(isPermutation(std::vector<int>{}));
    EXPECT_TRUE(isPermutation(std::vector<int>{2, 0, 1}));
    EXPECT_FALSE(isPermutation(std::vector<int>{0, 0, 1}));
    EXPECT_FALSE(isPermutation(std::vector<int>{0, 3, 1}));
    EXPECT_FALSE(isPermutation(std::vector<int>{-1, 0, 1}));
    std::vector<int> widest(64);
    std::iota(widest.rbegin(), widest.rend(), 0);
    EXPECT_TRUE(isPermutation(widest));
    widest[50] = widest[51];
    EXPECT_FALSE(isPermutation(widest));
}

TEST(Permutation, Factorial)
{
    EXPECT_DOUBLE_EQ(factorial(0), 1.0);
    EXPECT_DOUBLE_EQ(factorial(7), 5040.0);
}

TEST(RunningStat, MatchesBatchFormulas)
{
    RunningStat rs;
    std::vector<double> xs = {1.0, 4.0, -2.0, 8.5, 0.0};
    for (double x : xs)
        rs.push(x);
    EXPECT_EQ(rs.count(), 5);
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), -2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 8.5);
}

TEST(Stats, GeomeanAndQuantile)
{
    std::vector<double> v = {1.0, 10.0, 100.0};
    EXPECT_NEAR(geomean(v), 10.0, 1e-9);
    EXPECT_NEAR(quantile(v, 0.5), 10.0, 1e-9);
    EXPECT_NEAR(quantile(v, 0.0), 1.0, 1e-9);
    EXPECT_NEAR(quantile(v, 1.0), 100.0, 1e-9);
}

TEST(Rng, DeterministicAndForkIndependent)
{
    Rng a(123), b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.raw(), b.raw());
    Rng parent(9);
    Rng child = parent.fork();
    // Child stream differs from the parent continuation.
    bool anyDiff = false;
    for (int i = 0; i < 8; ++i)
        anyDiff |= parent.raw() != child.raw();
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(77);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.uniformInt(2, 5));
    EXPECT_EQ(seen, (std::set<int64_t>{2, 3, 4, 5}));
}

TEST(Env, ParsesAndDefaults)
{
    ::setenv("MM_TEST_INT", "42", 1);
    ::setenv("MM_TEST_DOUBLE", "2.5", 1);
    ::setenv("MM_TEST_BAD", "nope", 1);
    EXPECT_EQ(envInt("MM_TEST_INT", 7), 42);
    EXPECT_EQ(envInt("MM_TEST_MISSING", 7), 7);
    EXPECT_DOUBLE_EQ(envDouble("MM_TEST_DOUBLE", 1.0), 2.5);
    EXPECT_EQ(envStr("MM_TEST_MISSING", "dflt"), "dflt");
    EXPECT_THROW(envInt("MM_TEST_BAD", 0), FatalError);
    ::unsetenv("MM_TEST_INT");
    ::unsetenv("MM_TEST_DOUBLE");
    ::unsetenv("MM_TEST_BAD");
}

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(StringUtil, JoinAndFormat)
{
    EXPECT_EQ(join(std::vector<int>{1, 2, 3}, "-"), "1-2-3");
    EXPECT_EQ(strCat("a", 1, "b"), "a1b");
    EXPECT_EQ(fmtDouble(3.14159, 3), "3.14");
}

TEST(TableOutput, AlignsAndEchoesCsv)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow("beta", {2.5});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("# csv"), std::string::npos);
    EXPECT_NE(out.find("# alpha,1"), std::string::npos);
    EXPECT_NE(out.find("# beta,2.5"), std::string::npos);
}

TEST(TableOutput, RejectsArityMismatch)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(WallTimer, MonotoneAndResettable)
{
    WallTimer timer;
    double t1 = timer.elapsedSec();
    double t2 = timer.elapsedSec();
    EXPECT_GE(t2, t1);
    timer.reset();
    EXPECT_GE(timer.elapsedSec(), 0.0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<int> outer(8, 0);
    pool.parallelFor(outer.size(), [&](size_t i) {
        // Same-pool nesting degrades to an inline loop instead of
        // deadlocking on the single job slot.
        std::vector<int> inner(5, 0);
        pool.parallelFor(inner.size(), [&](size_t j) { inner[j] = 1; });
        int sum = 0;
        for (int v : inner)
            sum += v;
        outer[i] = sum;
    });
    for (int v : outer)
        EXPECT_EQ(v, 5);
}

TEST(ThreadPoolTest, ConcurrentSubmittersSerialize)
{
    ThreadPool pool(3);
    std::vector<std::vector<int>> results(4);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < results.size(); ++t)
        callers.emplace_back([&, t] {
            results[t].assign(100, 0);
            pool.parallelFor(100, [&, t](size_t i) { results[t][i] = 1; });
        });
    for (auto &c : callers)
        c.join();
    for (const auto &r : results) {
        int sum = 0;
        for (int v : r)
            sum += v;
        EXPECT_EQ(sum, 100);
    }
}

TEST(ParallelContextTest, SerialAndPooledLanes)
{
    ParallelContext serial(1);
    EXPECT_EQ(serial.lanes(), 1u);
    EXPECT_EQ(serial.pool(), nullptr);
    std::vector<int> hits(7, 0);
    serial.parallelFor(hits.size(), [&](size_t i) { hits[i] = 1; });
    for (int v : hits)
        EXPECT_EQ(v, 1);

    ParallelContext pooled(3);
    EXPECT_EQ(pooled.lanes(), 3u);
    ASSERT_NE(pooled.pool(), nullptr);
    std::vector<int> hits2(29, 0);
    pooled.parallelFor(hits2.size(), [&](size_t i) { hits2[i] = 1; });
    for (int v : hits2)
        EXPECT_EQ(v, 1);
}

// ---------------------------------------------------------------------------
// Env-knob hardening: malformed values must fail loudly, naming the
// variable and the offending text — never a silently misparsed prefix,
// zero, or size_t-wrapped negative.
// ---------------------------------------------------------------------------

TEST(Env, RejectsTrailingJunkOverflowAndNegativeSizes)
{
    ::setenv("MM_TEST_SUFFIX", "10k", 1);
    ::setenv("MM_TEST_HUGE", "10000000000000000000000", 1);
    ::setenv("MM_TEST_NEG", "-5", 1);
    ::setenv("MM_TEST_EMPTY", "", 1);

    try {
        envInt("MM_TEST_SUFFIX", 0);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("MM_TEST_SUFFIX"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("10k"), std::string::npos);
    }
    EXPECT_THROW(envInt("MM_TEST_HUGE", 0), FatalError);
    EXPECT_THROW(envInt("MM_TEST_EMPTY", 0), FatalError);
    EXPECT_THROW(envSize("MM_TEST_SUFFIX", 0), FatalError);
    EXPECT_THROW(envSize("MM_TEST_NEG", 0), FatalError);
    EXPECT_EQ(envInt("MM_TEST_NEG", 0), -5); // negatives fine as ints
    EXPECT_EQ(envSize("MM_TEST_ABSENT", 33u), 33u);

    ::unsetenv("MM_TEST_SUFFIX");
    ::unsetenv("MM_TEST_HUGE");
    ::unsetenv("MM_TEST_NEG");
    ::unsetenv("MM_TEST_EMPTY");
}

TEST(Env, SizeListParsesAndRejectsMalformedItems)
{
    ::setenv("MM_TEST_LIST", "3000,10000,,60000", 1);
    EXPECT_EQ(envSizeList("MM_TEST_LIST", {}),
              (std::vector<size_t>{3000, 10000, 60000}));
    EXPECT_EQ(envSizeList("MM_TEST_ABSENT", {1, 2}),
              (std::vector<size_t>{1, 2}));

    ::setenv("MM_TEST_LIST", "3000,10k", 1);
    try {
        envSizeList("MM_TEST_LIST", {});
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("MM_TEST_LIST"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("10k"), std::string::npos);
    }
    ::setenv("MM_TEST_LIST", "100,-3", 1);
    EXPECT_THROW(envSizeList("MM_TEST_LIST", {}), FatalError);
    ::unsetenv("MM_TEST_LIST");
}

// ---------------------------------------------------------------------------
// SerialWorker: the background writer under the double-buffered
// streamed generator and the shard prefetcher.
// ---------------------------------------------------------------------------

TEST(SerialWorker, RunsTasksInSubmissionOrder)
{
    std::vector<int> order;
    {
        SerialWorker w;
        for (int i = 0; i < 50; ++i)
            w.submit([&order, i] { order.push_back(i); });
        w.drain();
    }
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[size_t(i)], i);
}

TEST(SerialWorker, ThrottleBoundsInFlightWork)
{
    // A double-buffering producer relies on throttle(1): after it
    // returns, every task but (at most) the newest has completed.
    SerialWorker w;
    std::atomic<int> done{0};
    for (int round = 0; round < 10; ++round) {
        w.throttle(1);
        int expectMin = round - 1; // all but the previous submission
        EXPECT_GE(done.load(), expectMin);
        w.submit([&done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            done.fetch_add(1);
        });
    }
    w.drain();
    EXPECT_EQ(done.load(), 10);
}

TEST(SerialWorker, FirstErrorIsRethrownAndLaterTasksDropped)
{
    SerialWorker w;
    std::atomic<bool> ranAfterError{false};
    w.submit([] { throw FatalError("background boom"); });
    // The error may surface at the next submit (if the failing task
    // already ran) or at drain — either way exactly once, and the
    // post-error task must never execute.
    bool threw = false;
    try {
        w.submit([&ranAfterError] { ranAfterError = true; });
        w.drain();
    } catch (const FatalError &e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("background boom"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);
    w.drain(); // no second rethrow: the error was consumed
    EXPECT_FALSE(ranAfterError.load());
    // The worker is usable again.
    w.submit([] {});
    w.drain();
}

} // namespace
} // namespace mm
