/**
 * @file
 * Microbenchmarks of the primitives underlying every experiment: cost-
 * model evaluation, map-space sampling/projection, codec round trips,
 * surrogate forward/backward steps and the GEMM kernel. These are the
 * real-time costs behind the virtual-time model of Figure 6 (our
 * analytical model evaluates in microseconds — the reason raw wall
 * clock cannot reproduce the paper's iso-time setup; see DESIGN.md).
 */
#include <benchmark/benchmark.h>

#include "bench/bench_util.hpp"
#include "common/thread_pool.hpp"
#include "mapping/codec.hpp"
#include "mapping/moves.hpp"
#include "support/gemm_oracle.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace mm;

struct Fixture
{
    AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    Problem problem =
        cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3);
    MapSpace space{arch, problem};
    CostModel model{space};
    MappingCodec codec{space};
    Rng rng{17};
    Mapping mapping = space.randomValid(rng);
};

Fixture &
fixture()
{
    static Fixture fx;
    return fx;
}

void
BM_CostModelEvaluate(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.model.edp(fx.mapping));
}
BENCHMARK(BM_CostModelEvaluate);

void
BM_RandomValidMapping(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.space.randomValid(fx.rng));
}
BENCHMARK(BM_RandomValidMapping);

void
BM_ProjectCorruptMapping(benchmark::State &state)
{
    auto &fx = fixture();
    Mapping corrupt = fx.mapping;
    corrupt.tiling[size_t(MemLevel::L1)][2] = 4096;
    corrupt.spatial[1] = 300;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.space.project(corrupt));
}
BENCHMARK(BM_ProjectCorruptMapping);

void
BM_CodecRoundTrip(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state) {
        auto f = fx.codec.encode(fx.mapping);
        benchmark::DoNotOptimize(fx.codec.decode(f));
    }
}
BENCHMARK(BM_CodecRoundTrip);

void
BM_NeighborMove(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            randomNeighbor(fx.space, fx.mapping, fx.rng));
}
BENCHMARK(BM_NeighborMove);

void
BM_SurrogateGradientStep(benchmark::State &state)
{
    // One Phase-2 step as Surrogate::gradientBatch runs it: forward +
    // input gradient through the frozen (pre-packed) fast-preset-shaped
    // surrogate (untrained weights; identical FLOPs). The packing in
    // freeze() happens once per trained surrogate, outside the loop.
    auto &fx = fixture();
    Rng rng(3);
    Phase1Config cfg;
    cfg.resolve();
    Mlp net(fx.codec.featureCount(),
            surrogateTopology(cfg.hidden, CostResult::metaStatCount(3)),
            rng);
    net.freeze();
    Matrix x(1, fx.codec.featureCount());
    Matrix dOut(1, CostResult::metaStatCount(3));
    dOut.fill(0.1f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward(x));
        benchmark::DoNotOptimize(net.inputGradient(dOut));
    }
}
BENCHMARK(BM_SurrogateGradientStep);

void
BM_Gemm128(benchmark::State &state)
{
    Rng rng(5);
    Matrix a(128, 128), b(128, 128), c(128, 128);
    for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = float(rng.uniformReal(-1, 1));
        b.data()[i] = float(rng.uniformReal(-1, 1));
    }
    for (auto _ : state)
        gemm(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 128
                            * 128);
}
BENCHMARK(BM_Gemm128);

void
BM_Gemm128Naive(benchmark::State &state)
{
    Rng rng(5);
    Matrix a(128, 128), b(128, 128), c(128, 128);
    for (size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = float(rng.uniformReal(-1, 1));
        b.data()[i] = float(rng.uniformReal(-1, 1));
    }
    for (auto _ : state)
        gemmNaive(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 128
                            * 128);
}
BENCHMARK(BM_Gemm128Naive);

/** The Phase-1 paper-preset hidden-layer shape: 128 x 2048 x 2048. */
void
BM_GemmMlpShaped(benchmark::State &state)
{
    Rng rng(6);
    Matrix a(128, 2048), b(2048, 2048), c(128, 2048);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = float(rng.uniformReal(-1, 1));
    for (size_t i = 0; i < b.size(); ++i)
        b.data()[i] = float(rng.uniformReal(-1, 1));
    for (auto _ : state)
        gemm(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 2048
                            * 2048);
}
BENCHMARK(BM_GemmMlpShaped);

void
BM_GemmMlpShapedNaive(benchmark::State &state)
{
    Rng rng(6);
    Matrix a(128, 2048), b(2048, 2048), c(128, 2048);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = float(rng.uniformReal(-1, 1));
    for (size_t i = 0; i < b.size(); ++i)
        b.data()[i] = float(rng.uniformReal(-1, 1));
    for (auto _ : state)
        gemmNaive(false, false, 1.0f, a, b, 0.0f, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 2048
                            * 2048);
}
BENCHMARK(BM_GemmMlpShapedNaive);

void
BM_GemmMlpShapedThreaded(benchmark::State &state)
{
    Rng rng(6);
    Matrix a(128, 2048), b(2048, 2048), c(128, 2048);
    for (size_t i = 0; i < a.size(); ++i)
        a.data()[i] = float(rng.uniformReal(-1, 1));
    for (size_t i = 0; i < b.size(); ++i)
        b.data()[i] = float(rng.uniformReal(-1, 1));
    ThreadPool pool(0); // hardware concurrency
    for (auto _ : state)
        gemm(false, false, 1.0f, a, b, 0.0f, c, &pool);
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * 128 * 2048
                            * 2048);
}
BENCHMARK(BM_GemmMlpShapedThreaded);

void
BM_LowerBound(benchmark::State &state)
{
    auto &fx = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            computeLowerBound(fx.arch, fx.problem));
}
BENCHMARK(BM_LowerBound);

} // namespace

BENCHMARK_MAIN();
