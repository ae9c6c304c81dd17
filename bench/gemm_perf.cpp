/**
 * @file
 * GEMM backend throughput: the dispatched kernels vs the scalar loops.
 *
 * Measures the MLP-shaped sizes that dominate Phase-1 training and the
 * batched Phase-2 driver: square 128-row products against the fast-
 * and paper-preset hidden widths, and every GEMM a training step of the
 * Fast-preset CNN surrogate (62-64-128-128-64-12) issues — forward,
 * weight gradient and input gradient of all five layers — at batch 128
 * and at one row (the Phase-2 single-sample query). The one-row shapes
 * are also timed with op(B) pre-packed (PackedB, kernel "gemm_packed"),
 * as a frozen surrogate runs them: the gap to "gemm" is the per-call
 * packing. Verifies every kernel against gemmReference (the packed one
 * bitwise against "gemm"), records which ISA variant ran, and writes
 * BENCH_gemm.json.
 *
 * Knobs: MM_GEMM_SECS (target seconds per measurement, default 0.25),
 * MM_THREADS (lanes for the threaded rows, 0 = hardware concurrency).
 */
#include <iostream>
#include <limits>
#include <optional>

#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "support/gemm_oracle.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace mm;
using namespace mm::bench;

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.uniformReal(-1.0, 1.0));
    return m;
}

struct Shape
{
    std::string name;
    size_t m, k, n;
    bool transA = false, transB = false;
    float beta = 0.0f;
    bool threaded = false; ///< also time the pool-threaded call
    bool packed = false;   ///< also time with op(B) pre-packed
};

/**
 * The GEMMs DenseLayer issues for one in -> out layer over @p rows
 * samples: forward y = x W^T, weight gradient dW += dZ^T x, input
 * gradient dX = dZ W.
 */
void
addLayerShapes(std::vector<Shape> &shapes, const std::string &layer,
               size_t in, size_t out, size_t rows)
{
    const std::string tag = strCat(layer, "_b", rows);
    const bool packed = rows == 1;
    shapes.push_back({tag + "_fwd", rows, in, out, false, true, 0.0f,
                      false, packed});
    shapes.push_back({tag + "_dw", out, rows, in, true, false, 1.0f, false,
                      packed});
    shapes.push_back({tag + "_dx", rows, out, in, false, false, 0.0f,
                      false, packed});
}

using GemmFn = std::function<void(const Matrix &, const Matrix &, Matrix &)>;

/** Median-of-3 wall seconds per call, each sample >= targetSecs long. */
double
timeGemm(const GemmFn &fn, const Matrix &a, const Matrix &b, Matrix &c,
         double targetSecs)
{
    // Warm up and estimate a single-call cost.
    WallTimer probe;
    fn(a, b, c);
    double once = std::max(probe.elapsedSec(), 1e-7);
    const int reps = std::max(1, int(targetSecs / once));
    double best = std::numeric_limits<double>::infinity();
    for (int sample = 0; sample < 3; ++sample) {
        WallTimer timer;
        for (int r = 0; r < reps; ++r)
            fn(a, b, c);
        best = std::min(best, timer.elapsedSec() / double(reps));
    }
    return best;
}

} // namespace

int
main()
{
    BenchEnv env;
    banner("GEMM backend: dispatched kernels vs scalar baseline",
           strCat("MLP-shaped sizes and surrogate training GEMMs; kernel "
                  "variant ",
                  gemmKernelName()));

    const double targetSecs = envDouble("MM_GEMM_SECS", 0.25);
    size_t lanes = env.threads <= 0 ? std::thread::hardware_concurrency()
                                    : size_t(env.threads);
    if (lanes == 0)
        lanes = 1;
    ThreadPool pool(lanes);

    std::vector<Shape> shapes = {
        {"batch128_fast_hidden", 128, 128, 128, false, false, 0.0f, true},
        {"batch128_wide", 128, 512, 512, false, false, 0.0f, true},
        {"batch128_paper_hidden", 128, 2048, 2048, false, false, 0.0f,
         true},
    };
    const std::vector<size_t> widths = {62, 64, 128, 128, 64, 12};
    for (size_t rows : {size_t(128), size_t(1)})
        for (size_t l = 0; l + 1 < widths.size(); ++l)
            addLayerShapes(shapes, strCat("L", l), widths[l],
                           widths[l + 1], rows);

    Table table({"shape", "m", "k", "n", "op", "path", "kernel", "threads",
                 "us/call", "gflops", "speedup_vs_naive"});
    JsonArray series;
    Rng rng(42);
    for (const Shape &s : shapes) {
        const bool ta = s.transA, tb = s.transB;
        const float beta = s.beta;
        Matrix a = ta ? randomMatrix(s.k, s.m, rng)
                      : randomMatrix(s.m, s.k, rng);
        Matrix b = tb ? randomMatrix(s.n, s.k, rng)
                      : randomMatrix(s.k, s.n, rng);
        Matrix c(s.m, s.n);
        const double flops = 2.0 * double(s.m) * double(s.k) * double(s.n);
        const std::string op =
            std::string(ta ? "T" : "N") + std::string(tb ? "T" : "N");
        const char *path = s.k * s.n < 4096 ? "skinny" : "blocked";

        // Correctness gate before timing anything.
        Matrix ref(s.m, s.n);
        gemmReference(ta, tb, 1.0f, a, b, 0.0f, ref);
        gemm(ta, tb, 1.0f, a, b, 0.0f, c);
        double err = maxAbsDiff(c, ref);
        MM_ASSERT(err < 1e-2 * double(s.k),
                  strCat("gemm mismatch on ", s.name));
        std::optional<PackedB> packed;
        if (s.packed) {
            packed.emplace(b, tb);
            Matrix cp(s.m, s.n);
            gemm(ta, tb, 1.0f, a, b, &*packed, 0.0f, cp);
            MM_ASSERT(maxAbsDiff(cp, c) == 0.0,
                      strCat("packed gemm differs on ", s.name));
        }

        struct Variant
        {
            const char *kernel;
            int threads;
            GemmFn fn;
        };
        std::vector<Variant> variants = {
            {"naive", 1,
             [ta, tb, beta](const Matrix &a_, const Matrix &b_, Matrix &c_) {
                 gemmNaive(ta, tb, 1.0f, a_, b_, beta, c_);
             }},
            {"gemm", 1,
             [ta, tb, beta](const Matrix &a_, const Matrix &b_, Matrix &c_) {
                 gemm(ta, tb, 1.0f, a_, b_, beta, c_);
             }},
        };
        if (s.packed)
            variants.push_back(
                {"gemm_packed", 1,
                 [pb = &*packed, ta, tb, beta](const Matrix &a_,
                                               const Matrix &b_,
                                               Matrix &c_) {
                     gemm(ta, tb, 1.0f, a_, b_, pb, beta, c_);
                 }});
        if (s.threaded && lanes > 1)
            variants.push_back(
                {"gemm", int(lanes),
                 [&pool, ta, tb, beta](const Matrix &a_, const Matrix &b_,
                                       Matrix &c_) {
                     gemm(ta, tb, 1.0f, a_, b_, beta, c_, &pool);
                 }});

        double naiveSec = 0.0;
        for (const Variant &v : variants) {
            double sec = timeGemm(v.fn, a, b, c, targetSecs);
            if (std::string(v.kernel) == "naive")
                naiveSec = sec;
            double speedup = naiveSec > 0.0 ? naiveSec / sec : 1.0;
            table.addRow({s.name, strCat(s.m), strCat(s.k), strCat(s.n), op,
                          path, v.kernel, strCat(v.threads),
                          fmtDouble(sec * 1e6, 4),
                          fmtDouble(flops / sec * 1e-9, 3),
                          fmtDouble(speedup, 3)});
            JsonObject point;
            point.set("shape", s.name)
                .set("m", int64_t(s.m))
                .set("k", int64_t(s.k))
                .set("n", int64_t(s.n))
                .set("op", op)
                .set("path", path)
                .set("kernel", v.kernel)
                .set("threads", v.threads)
                .set("sec_per_call", sec)
                .set("gflops", flops / sec * 1e-9)
                .set("speedup_vs_naive", speedup);
            series.add(point);
            std::cerr << "[gemm] " << s.name << " " << v.kernel << " t="
                      << v.threads << " " << fmtDouble(flops / sec * 1e-9, 3)
                      << " GFLOP/s" << std::endl;
        }
    }
    table.print(std::cout);

    JsonObject json = benchJsonHeader("gemm", env);
    json.set("lanes", int64_t(lanes))
        .set("kernel_variant", gemmKernelName())
        .setRaw("series", series.str());
    writeBenchJson("gemm", json);
    return 0;
}
