/**
 * @file
 * Map-space tests: sampling validity, projection repair, the 62/40-float
 * codec, move operators, loop-nest coverage (functional correctness of
 * mappings) and size estimation.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "mapping/codec.hpp"
#include "mapping/map_space.hpp"
#include "mapping/moves.hpp"
#include "mapping/nest.hpp"
#include "mapping/printer.hpp"

namespace mm {
namespace {

struct SpaceFixture
{
    AcceleratorSpec arch;
    Problem problem;
    MapSpace space;

    SpaceFixture(AcceleratorSpec arch_, Problem problem_)
        : arch(std::move(arch_)), problem(std::move(problem_)),
          space(arch, problem)
    {}
};

SpaceFixture
paperCnnSpace()
{
    return {AcceleratorSpec::paperDefault(),
            cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3)};
}

SpaceFixture
paperMttkrpSpace()
{
    return {AcceleratorSpec::paperDefault(),
            mttkrpProblem("MTTKRP_0", 128, 1024, 4096, 2048)};
}

SpaceFixture
tinyConvSpace()
{
    return {AcceleratorSpec::tinyDefault(),
            makeProblem(conv1dAlgo(), "conv1d_tiny", {12, 3})};
}

TEST(MapSpace, RandomValidIsAlwaysMember)
{
    auto fx = paperCnnSpace();
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        Mapping m = fx.space.randomValid(rng);
        EXPECT_TRUE(fx.space.isMember(m)) << fx.space.validityError(m);
        EXPECT_LE(m.usedPes(), fx.arch.numPes);
        for (size_t d = 0; d < fx.space.rank(); ++d) {
            EXPECT_GE(m.dimProduct(d), fx.problem.bounds[d]);
            EXPECT_LE(m.dimProduct(d), 2 * fx.problem.bounds[d]);
        }
    }
}

class MapSpaceSweep : public ::testing::TestWithParam<int>
{};

TEST_P(MapSpaceSweep, AllTable1ProblemsSampleValid)
{
    auto problems = table1All();
    auto arch = AcceleratorSpec::paperDefault();
    const Problem &p = problems[size_t(GetParam())];
    MapSpace space(arch, p);
    Rng rng(uint64_t(GetParam()) + 17);
    for (int i = 0; i < 50; ++i) {
        Mapping m = space.randomValid(rng);
        ASSERT_TRUE(space.isMember(m))
            << p.name << ": " << space.validityError(m);
    }
}

INSTANTIATE_TEST_SUITE_P(Table1, MapSpaceSweep,
                         ::testing::Range(0, 8));

TEST(MapSpace, ProjectIsIdentityOnValidMappings)
{
    auto fx = paperMttkrpSpace();
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        Mapping m = fx.space.randomValid(rng);
        EXPECT_EQ(fx.space.project(m), m);
    }
}

TEST(MapSpace, ProjectRepairsCorruptedMappings)
{
    auto fx = paperCnnSpace();
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        Mapping m = fx.space.randomValid(rng);
        // Corrupt every attribute class.
        m.tiling[size_t(MemLevel::L1)][0] = 10000;
        m.spatial[1] = 999;
        m.loopOrder[size_t(MemLevel::L2)] = {0, 0, 0, 0, 0, 0, 0};
        m.bufferAlloc[0] = {50, 0, -2};
        Mapping fixed = fx.space.project(m);
        EXPECT_TRUE(fx.space.isMember(fixed))
            << fx.space.validityError(fixed);
    }
}

TEST(MapSpace, ProjectIsIdempotent)
{
    auto fx = paperCnnSpace();
    Rng rng(4);
    for (int i = 0; i < 50; ++i) {
        Mapping m = fx.space.randomValid(rng);
        m.tiling[size_t(MemLevel::DRAM)][2] = 77;
        m.spatial[0] = 40;
        Mapping once = fx.space.project(m);
        Mapping twice = fx.space.project(once);
        EXPECT_EQ(once, twice);
    }
}

TEST(MapSpace, CapacityConstraintIsEnforced)
{
    auto fx = paperCnnSpace();
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        Mapping m = fx.space.randomValid(rng);
        auto e1 = m.extentsL1();
        auto e2 = m.extentsL2();
        for (size_t t = 0; t < fx.space.tensorCount(); ++t) {
            EXPECT_LE(fx.space.tensorTileBytes(t, e1),
                      fx.space.allocBytes(0, t, m));
            EXPECT_LE(fx.space.tensorTileBytes(t, e2),
                      fx.space.allocBytes(1, t, m));
        }
    }
}

TEST(MapSpace, RejectsUndersizedAccelerator)
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    arch.levels[0].banks = 2; // fewer banks than CNN's three tensors
    Problem p = cnnProblem("x", 1, 32, 16, 10, 10, 3, 3);
    EXPECT_THROW(MapSpace(arch, p), FatalError);
}

TEST(MapSpace, RejectsProblemsAboveMaxRank)
{
    AlgorithmSpec wide;
    wide.name = "wide";
    TensorSpec out{"Out", {}, true};
    for (size_t d = 0; d <= kMaxRank; ++d) {
        wide.dimNames.push_back("D" + std::to_string(d));
        out.dims.push_back({ProjTerm{int(d), 1}});
    }
    wide.tensors.push_back(out);
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem p = makeProblem(wide, "wide",
                            std::vector<int64_t>(kMaxRank + 1, 2));
    EXPECT_THROW(MapSpace(arch, p), FatalError);
}

TEST(MapSpace, OutParameterFormsReuseAnyMapping)
{
    // Writing into a mapping of another shape (here: another space's)
    // gives exactly what the value forms return.
    auto cnn = paperCnnSpace();
    auto mtt = paperMttkrpSpace();
    Rng shape(5), a(31), b(31);
    for (int i = 0; i < 50; ++i) {
        Mapping reused = cnn.space.randomValid(shape);
        mtt.space.randomValid(b, reused);
        EXPECT_EQ(mtt.space.randomValid(a), reused);

        Mapping raw = reused;
        raw.spatial[0] = 1000;
        raw.loopOrder[0] = {3, 3};
        const Mapping projected = mtt.space.project(raw);
        mtt.space.projectInPlace(raw);
        EXPECT_EQ(raw, projected);
    }
}

/** Per-thread workload of the concurrency test: sample, project and
 * decode on the shared space, hashed. */
uint64_t
primitiveWorkload(const MapSpace &space, const MappingCodec &codec,
                  uint64_t seed);

/**
 * Eight threads sample, project and decode on one shared MapSpace (and
 * build map spaces for new bounds, which populates the factor-table
 * cache concurrently). The primitives take no lock and keep no mutable
 * state, so each thread's results equal the serial run's; under TSan
 * this also checks that they touch no shared mutable data.
 */
TEST(MapSpace, ConcurrentPrimitivesOnOneSpaceMatchSerial)
{
    auto fx = paperCnnSpace();
    MappingCodec codec(fx.space);
    constexpr int kThreads = 8;
    std::array<uint64_t, kThreads> serial{}, parallel{};
    for (int t = 0; t < kThreads; ++t)
        serial[size_t(t)] = primitiveWorkload(fx.space, codec, uint64_t(t));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Problem own = mttkrpProblem("own", 3000 + t, 64, 64, 64);
            MapSpace ownSpace(fx.arch, own);
            Rng rng(static_cast<uint64_t>(t));
            EXPECT_TRUE(ownSpace.isMember(ownSpace.randomValid(rng)));
            parallel[size_t(t)] =
                primitiveWorkload(fx.space, codec, uint64_t(t));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(parallel, serial);
}

TEST(MapSpace, Log10SizeIsLargeForPaperProblems)
{
    auto cnn = paperCnnSpace();
    auto mtt = paperMttkrpSpace();
    // Section 5.1.3: ~1e25 for ResNet Conv_4, ~1e19 for MTTKRP_0. Our
    // estimate counts the same attribute classes; just check order of
    // magnitude regions and the CNN > MTTKRP ordering.
    EXPECT_GT(cnn.space.log10Size(), 18.0);
    EXPECT_LT(cnn.space.log10Size(), 40.0);
    EXPECT_GT(mtt.space.log10Size(), 12.0);
    EXPECT_GT(cnn.space.log10Size(), mtt.space.log10Size());
}

TEST(Codec, FeatureCountsMatchPaper)
{
    auto cnn = paperCnnSpace();
    auto mtt = paperMttkrpSpace();
    EXPECT_EQ(MappingCodec(cnn.space).featureCount(), 62u);
    EXPECT_EQ(MappingCodec(mtt.space).featureCount(), 40u);
}

TEST(Codec, EncodeLayoutSegments)
{
    auto fx = paperCnnSpace();
    MappingCodec codec(fx.space);
    EXPECT_EQ(codec.pidCount(), 7u);
    EXPECT_EQ(codec.tilingCount(), 21u);
    EXPECT_EQ(codec.spatialCount(), 7u);
    EXPECT_EQ(codec.orderCount(), 21u);
    EXPECT_EQ(codec.allocCount(), 6u);
    EXPECT_EQ(codec.allocOffset() + codec.allocCount(),
              codec.featureCount());

    Rng rng(6);
    Mapping m = fx.space.randomValid(rng);
    auto f = codec.encode(m);
    ASSERT_EQ(f.size(), 62u);
    // pid segment holds the problem bounds.
    for (size_t d = 0; d < 7; ++d)
        EXPECT_DOUBLE_EQ(f[d], double(fx.problem.bounds[d]));
    // tiling segment starts with the L1 factors.
    for (size_t d = 0; d < 7; ++d)
        EXPECT_DOUBLE_EQ(f[codec.tilingOffset() + d],
                         double(m.tiling[size_t(MemLevel::L1)][d]));
}

TEST(Codec, DecodeInvertsEncode)
{
    for (auto fx : {paperCnnSpace(), paperMttkrpSpace()}) {
        MappingCodec codec(fx.space);
        Rng rng(7);
        for (int i = 0; i < 100; ++i) {
            Mapping m = fx.space.randomValid(rng);
            Mapping back = codec.decode(codec.encode(m));
            EXPECT_EQ(back, m);
        }
    }
}

TEST(Codec, DecodeHandlesArbitraryReals)
{
    auto fx = paperCnnSpace();
    MappingCodec codec(fx.space);
    Rng rng(8);
    for (int i = 0; i < 100; ++i) {
        std::vector<double> f(codec.featureCount());
        for (auto &v : f)
            v = rng.uniformReal(-50.0, 300.0);
        Mapping m = codec.decode(f);
        EXPECT_TRUE(fx.space.isMember(m)) << fx.space.validityError(m);
    }

    // Non-finite and huge features, as a diverged surrogate or DDPG
    // actor produces them: still a member, the same on every call.
    const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              1e300, -1e300};
    for (int i = 0; i < 200; ++i) {
        std::vector<double> f(codec.featureCount());
        for (auto &v : f)
            v = rng.bernoulli(0.5) ? special[rng.uniformInt(0, 4)]
                                   : rng.uniformReal(-50.0, 300.0);
        if (i == 0)
            std::fill(f.begin(), f.end(), special[0]);
        Mapping m = codec.decode(f);
        EXPECT_TRUE(fx.space.isMember(m)) << fx.space.validityError(m);
        EXPECT_EQ(codec.decode(f), m);
        Mapping reused = fx.space.randomValid(rng);
        codec.decode(f, reused);
        EXPECT_EQ(reused, m);
    }
}

TEST(Moves, NeighborsAreValidAndUsuallyDifferent)
{
    auto fx = paperCnnSpace();
    Rng rng(9);
    Mapping m = fx.space.randomValid(rng);
    int changed = 0;
    for (int i = 0; i < 100; ++i) {
        Mapping n = randomNeighbor(fx.space, m, rng);
        ASSERT_TRUE(fx.space.isMember(n)) << fx.space.validityError(n);
        changed += (n == m) ? 0 : 1;
    }
    EXPECT_GT(changed, 50);
}

TEST(Moves, CrossoverAndMutateStayValid)
{
    auto fx = paperMttkrpSpace();
    Rng rng(10);
    Mapping a = fx.space.randomValid(rng);
    Mapping b = fx.space.randomValid(rng);
    for (int i = 0; i < 50; ++i) {
        Mapping child = crossover(fx.space, a, b, rng);
        ASSERT_TRUE(fx.space.isMember(child));
        Mapping mutant = mutate(fx.space, child, 0.2, rng);
        ASSERT_TRUE(fx.space.isMember(mutant));
    }
}

TEST(Moves, ZeroProbabilityMutationIsIdentity)
{
    auto fx = paperCnnSpace();
    Rng rng(11);
    Mapping m = fx.space.randomValid(rng);
    EXPECT_EQ(mutate(fx.space, m, 0.0, rng), m);
}

TEST(Nest, CoversEveryInBoundsPointExactlyOnce)
{
    auto fx = tinyConvSpace();
    Rng rng(12);
    for (int trial = 0; trial < 20; ++trial) {
        Mapping m = fx.space.randomValid(rng);
        std::map<std::vector<int64_t>, int> hits;
        int64_t total = 0;
        forEachNestPoint(fx.space, m, [&](std::span<const int64_t> pt) {
            ++total;
            std::vector<int64_t> key(pt.begin(), pt.end());
            ++hits[key];
        });
        // Padded space size matches the factor products.
        int64_t padded = 1;
        for (size_t d = 0; d < fx.space.rank(); ++d)
            padded *= m.dimProduct(d);
        EXPECT_EQ(total, padded);

        // Every padded point appears exactly once...
        for (const auto &[pt, n] : hits)
            EXPECT_EQ(n, 1);
        // ...and every in-bounds point is covered.
        int64_t inBounds = 0;
        for (const auto &[pt, n] : hits) {
            bool ok = true;
            for (size_t d = 0; d < pt.size(); ++d)
                ok &= pt[d] < fx.problem.bounds[d];
            inBounds += ok ? 1 : 0;
        }
        EXPECT_EQ(inBounds, fx.problem.bounds[0] * fx.problem.bounds[1]);
    }
}

TEST(Nest, CnnTinyCoverage)
{
    AcceleratorSpec arch = AcceleratorSpec::tinyDefault();
    Problem p = cnnProblem("tiny", 2, 3, 2, 5, 5, 2, 2);
    MapSpace space(arch, p);
    Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
        Mapping m = space.randomValid(rng);
        std::set<std::vector<int64_t>> seen;
        int64_t total = 0;
        forEachNestPoint(space, m, [&](std::span<const int64_t> pt) {
            ++total;
            seen.emplace(pt.begin(), pt.end());
        });
        EXPECT_EQ(int64_t(seen.size()), total); // no duplicates
        int64_t inBounds = 0;
        for (const auto &pt : seen) {
            bool ok = true;
            for (size_t d = 0; d < pt.size(); ++d)
                ok &= pt[d] < p.bounds[d];
            inBounds += ok ? 1 : 0;
        }
        EXPECT_DOUBLE_EQ(double(inBounds), p.totalMacs());
    }
}

/**
 * Golden pin of the map-space primitives. For each space, every
 * routine runs 2000 times on inputs drawn from fixed seeds; the hash
 * folds in each output and, after each call, the Rng's next raw()
 * draw, which pins how many draws the call consumed. Values recorded
 * before the primitives were made allocation-free; any change to a
 * result or to the draw sequence changes a hash.
 */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    add(const std::vector<T> &v)
    {
        add(uint64_t(v.size()));
        for (T x : v)
            add(uint64_t(int64_t(x)));
    }

    void
    add(const Mapping &m)
    {
        for (const auto &t : m.tiling)
            add(t);
        add(m.spatial);
        for (const auto &o : m.loopOrder)
            add(o);
        for (const auto &a : m.bufferAlloc)
            add(a);
    }
};

/** A mapping-shaped value with out-of-domain entries of every class. */
Mapping
corrupted(const MapSpace &space, Rng &noise)
{
    Mapping m = space.randomValid(noise);
    const size_t d = space.rank();
    for (size_t i = 0; i < d; ++i) {
        const int64_t b = space.problem().bounds[i];
        for (auto &t : m.tiling)
            if (noise.bernoulli(0.3))
                t[i] = noise.uniformInt(-3, 3 * b);
        if (noise.bernoulli(0.3))
            m.spatial[i] = noise.uniformInt(-3, 3 * b);
    }
    for (auto &o : m.loopOrder)
        for (auto &v : o)
            if (noise.bernoulli(0.3))
                v = int(noise.uniformInt(-1, int64_t(d)));
    for (auto &a : m.bufferAlloc)
        for (auto &v : a)
            if (noise.bernoulli(0.3))
                v = int(noise.uniformInt(-2, 40));
    // Arity faults: a short tiling row and a short loop order.
    if (noise.bernoulli(0.1))
        m.tiling[size_t(noise.uniformInt(0, kNumMemLevels - 1))].resize(
            d - 1);
    if (noise.bernoulli(0.1))
        m.loopOrder[size_t(noise.uniformInt(0, kNumMemLevels - 1))]
            .resize(d / 2);
    return m;
}

uint64_t
primitiveWorkload(const MapSpace &space, const MappingCodec &codec,
                  uint64_t seed)
{
    Fnv h;
    Rng rng(seed);
    Mapping m;
    std::vector<double> f(codec.featureCount());
    for (int i = 0; i < 100; ++i) {
        space.randomValid(rng, m);
        h.add(m);
        h.add(space.project(corrupted(space, rng)));
        for (auto &v : f)
            v = rng.uniformReal(-50.0, 300.0);
        codec.decode(f, m);
        h.add(m);
    }
    return h.h;
}

/** Hashes of the six routines, in the order the test computes them. */
std::array<uint64_t, 6>
primitiveHashes(const MapSpace &space)
{
    constexpr int kCalls = 2000;
    MappingCodec codec(space);
    std::array<uint64_t, 6> out{};

    {
        Fnv h;
        Rng rng(101);
        for (int i = 0; i < kCalls; ++i) {
            h.add(space.randomValid(rng));
            h.add(rng.raw());
        }
        out[0] = h.h;
    }
    {
        Fnv h;
        Rng noise(102);
        for (int i = 0; i < kCalls; ++i)
            h.add(space.project(corrupted(space, noise)));
        out[1] = h.h;
    }
    {
        Fnv h;
        Rng noise(103);
        std::vector<double> f(codec.featureCount());
        for (int i = 0; i < kCalls; ++i) {
            if (i % 2 == 0) {
                for (auto &v : f)
                    v = noise.uniformReal(-50.0, 300.0);
            } else {
                f = codec.encode(space.randomValid(noise));
                for (size_t j = codec.pidCount(); j < f.size(); ++j)
                    f[j] += noise.gaussian(0.0, 1.5);
            }
            h.add(codec.decode(f));
        }
        out[2] = h.h;
    }
    {
        Fnv h;
        Rng rng(104);
        Mapping m = space.randomValid(rng);
        for (int i = 0; i < kCalls; ++i) {
            m = randomNeighbor(space, m, rng);
            h.add(m);
            h.add(rng.raw());
        }
        out[3] = h.h;
    }
    {
        Fnv h;
        Rng rng(105);
        Mapping m = space.randomValid(rng);
        for (int i = 0; i < kCalls; ++i) {
            m = mutate(space, m, 0.2, rng);
            h.add(m);
            h.add(rng.raw());
        }
        out[4] = h.h;
    }
    {
        Fnv h;
        Rng rng(106);
        std::vector<Mapping> pool;
        for (int i = 0; i < 8; ++i)
            pool.push_back(space.randomValid(rng));
        for (int i = 0; i < kCalls; ++i) {
            Mapping child = crossover(space, pool[size_t(i) % 8],
                                      pool[size_t(i + 3) % 8], rng);
            h.add(child);
            h.add(rng.raw());
            pool[size_t(i + 5) % 8] = std::move(child);
        }
        out[5] = h.h;
    }
    return out;
}

void
expectHashes(const MapSpace &space, const std::array<uint64_t, 6> &want)
{
    static const char *const names[] = {"randomValid", "project",
                                        "decode",      "randomNeighbor",
                                        "mutate",      "crossover"};
    const auto got = primitiveHashes(space);
    for (size_t i = 0; i < got.size(); ++i) {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                      static_cast<unsigned long long>(got[i]));
        EXPECT_EQ(got[i], want[i])
            << space.problem().name << " " << names[i] << " got " << hex;
    }
}

TEST(MapSpaceGolden, ResNetConv4)
{
    auto fx = paperCnnSpace();
    expectHashes(fx.space, {0xb7952632b73a6bf7ULL, 0xd2bcb40057d3c458ULL,
                            0x00aca7d45abe5d50ULL, 0x3b1c1a1bda7a27edULL,
                            0xf1db0fdd6745c9ddULL, 0xe05f36849ef28d29ULL});
}

TEST(MapSpaceGolden, MttkrpSmall)
{
    SpaceFixture fx{AcceleratorSpec::paperDefault(),
                    mttkrpProblem("MTTKRP_small", 128, 256, 512, 128)};
    expectHashes(fx.space, {0x186d2c426ae54e11ULL, 0x50543f522a76e8feULL,
                            0x5d5280eab2c770e4ULL, 0x298fd7ed4c1e7561ULL,
                            0xcc85d1f09dfdc3c5ULL, 0x28e4e4170db5fbbfULL});
}

TEST(MapSpaceGolden, Conv1d)
{
    SpaceFixture fx{AcceleratorSpec::tinyDefault(),
                    makeProblem(conv1dAlgo(), "conv1d_96x7", {96, 7})};
    expectHashes(fx.space, {0x63f051e0b495b1daULL, 0x318eeee90a90f34bULL,
                            0xca940b3408cf1cd8ULL, 0x26ee63763e971e62ULL,
                            0xbca232b9f0776cdeULL, 0xd9ad084518229889ULL});
}

TEST(Printer, RendersLoopNestAndBuffers)
{
    auto fx = paperCnnSpace();
    Rng rng(14);
    Mapping m = fx.space.randomValid(rng);
    std::string full = renderMapping(fx.space, m);
    EXPECT_NE(full.find("DRAM (temporal)"), std::string::npos);
    EXPECT_NE(full.find("mac"), std::string::npos);
    EXPECT_NE(full.find("buffers at L1"), std::string::npos);
    std::string compact = renderMappingCompact(fx.space, m);
    EXPECT_NE(compact.find("tiles[L1|sp|L2|DRAM]"), std::string::npos);
}

} // namespace
} // namespace mm
