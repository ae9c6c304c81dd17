/**
 * @file
 * The cold stage: spec -> trained surrogate -> mapping, with nothing
 * reused between repetitions. Each repetition runs two cold starts on
 * the workload's family:
 *
 *  - in RAM: MindMappings::prepare() with a fresh cache dir, then MM
 *    searches on the held-out target;
 *  - streamed: trainSurrogate() out of core with a fresh stream dir,
 *    small shards (more shards than the reader's cache), a windowed
 *    shuffle and shard prefetch, then the same MM searches.
 *
 * The traced run repeats both by calling the layers the facade calls
 * (dataset generation, the trainer, the shard reader, the surrogate
 * cache, the searcher) with a span around each, checks the result is
 * bitwise the facade's, and then replays single layers (cost-model
 * labeling, MLP forward/backward/optimizer per batch, each DenseLayer,
 * each GEMM shape) to split the training time further.
 */
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "core/cache.hpp"
#include "core/mind_mappings.hpp"
#include "core/shard_store.hpp"
#include "costmodel/reference_eval.hpp"
#include "harness.hpp"
#include "nn/optimizer.hpp"
#include "search/orchestrator.hpp"
#include "tensor/gemm.hpp"

namespace perfbench {

namespace {

using namespace mm;

constexpr double kMiB = 1024.0 * 1024.0;

struct ColdScale
{
    size_t samples;
    int epochs;
    int64_t steps;    ///< MM steps per search
    int runs;         ///< independent MM searches per cold start
    size_t shardSize; ///< streamed only
    size_t window;    ///< streamed only: shuffle window rows
    size_t prefetch;  ///< streamed only: shards warmed ahead
    int baselineDraws;
};

ColdScale
scaleFor(const Options &opt)
{
    if (opt.tiny)
        return {1200, 2, 40, 2, 100, 300, 2, 64};
    return {12000, 6, 500, 4, 500, 2000, 2, 8000};
}

/** Everything the cold stage needs, built in setup. */
struct ColdCtx
{
    const Options &opt;
    ColdScale scale;
    AcceleratorSpec arch;
    const AlgorithmSpec *algo;
    Problem target;
    Phase1Config p1;  ///< in RAM
    Phase1Config p1s; ///< streamed
    std::optional<MapSpace> space;
    std::optional<CostModel> model;
    double randomBaseline = 0.0;
};

const char *
variantName(bool streamed)
{
    return streamed ? "cold_start_streamed" : "cold_start";
}

/**
 * Search seeds are part of the fixed spec, like the Phase-1 seeds and
 * setup's baseline draws: MM results at this budget swing several-fold
 * from seed to seed (32 seeded searches still left mapping_norm_edp
 * with a 0.2-0.3 spread across run seeds), and setup must do the same
 * work in every run. The run seed only varies the traced run's gather
 * order and layer-replay inputs.
 */
uint64_t
searchSeed(int run)
{
    return repetitionSeed(1, run);
}

/**
 * Setup: the held-out target's map space and cost model, plus the
 * random-sampling baseline on it through the reference oracle (the
 * yardstick the found mapping is reported against).
 */
void
setup(ColdCtx &c)
{
    c.space.reset();
    c.model.reset();
    c.space.emplace(c.arch, c.target);
    c.model.emplace(*c.space);
    Rng rng(0x5eedULL);
    std::vector<double> draws;
    for (int i = 0; i < c.scale.baselineDraws; ++i) {
        Mapping m = c.space->randomValid(rng);
        draws.push_back(referenceEvaluate(*c.space, m).edp()
                        / c.model->lowerBound().edp());
    }
    c.randomBaseline = *std::min_element(draws.begin(), draws.end());
}

struct ColdOutcome
{
    double sec = 0.0;
    double testLoss = 0.0;
    std::vector<SearchResult> searches;
};

std::vector<SearchResult>
searchAll(const ColdCtx &c, Surrogate &sur)
{
    MindMappingsSearcher searcher(*c.model, sur, GradientSearchConfig{},
                                  TimingModel{});
    std::vector<SearchResult> out;
    for (int r = 0; r < c.scale.runs; ++r) {
        Rng rng(searchSeed(r));
        out.push_back(
            searcher.run(SearchBudget::bySteps(c.scale.steps), rng));
    }
    return out;
}

/** One untraced cold start through the public entry points. */
ColdOutcome
coldOnce(const ColdCtx &c, Report &rep, bool streamed)
{
    ColdOutcome out;
    const std::string name = variantName(streamed);
    if (!streamed) {
        const auto cacheDir = freshDir(c.opt.workDir, "cache");
        MindMappingsOptions mo;
        mo.phase1 = c.p1;
        mo.useCache = true;
        mo.cacheDir = cacheDir.string();
        const double t0 = nowSec();
        MindMappings mapper(c.arch, *c.algo, mo);
        const bool hit = mapper.prepare();
        for (int r = 0; r < c.scale.runs; ++r) {
            Rng rng(searchSeed(r));
            out.searches.push_back(mapper.search(
                c.target, SearchBudget::bySteps(c.scale.steps), rng));
        }
        out.sec = nowSec() - t0;
        rep.check(!hit, name + ": prepare() hit the cache of a fresh dir");
        rep.check(!mapper.trainingHistory().empty(),
                  name + ": prepare() trained no epochs");
        if (!mapper.trainingHistory().empty())
            out.testLoss = mapper.trainingHistory().back().testLoss;
        std::filesystem::remove_all(cacheDir);
        return out;
    }
    const auto streamDir = freshDir(c.opt.workDir, "stream");
    Phase1Config p1 = c.p1s;
    p1.data.streamDir = streamDir.string();
    const double t0 = nowSec();
    Phase1Result r = trainSurrogate(c.arch, *c.algo, p1);
    out.searches = searchAll(c, r.surrogate);
    out.sec = nowSec() - t0;
    rep.check(!r.datasetReused,
              name + ": Phase 1 reused a dataset in a fresh stream dir");
    rep.check(!r.history.empty(), name + ": Phase 1 trained no epochs");
    if (!r.history.empty())
        out.testLoss = r.history.back().testLoss;
    std::filesystem::remove_all(streamDir);
    return out;
}

/** What the traced cold start measured besides its spans. */
struct TracedExtras
{
    std::vector<double> epochSec;
    size_t trainRows = 0;
    double writeMb = 0.0;
    double readMb = 0.0;
    uint64_t prefetched = 0;
    uint64_t prefetchDropped = 0;
    double gatherUs = 0.0;
    std::optional<Surrogate> surrogate;
};

/**
 * Median time of one batch-128 gather from a fresh reader over the
 * committed store in @p dir, visiting rows in a windowed-shuffle order
 * like the trainer's (outside the timed cold start).
 */
double
gatherUsPerBatch(const ColdCtx &c, const std::filesystem::path &dir,
                 size_t trainRows)
{
    ShardedDatasetReader reader(dir.string(), 0, c.scale.prefetch);
    ShardBatchSource src(reader, 0, trainRows);
    Rng rng(c.opt.seed ^ 0x9a7eULL);
    std::vector<size_t> windows;
    for (size_t w = 0; w < trainRows; w += c.scale.window)
        windows.push_back(w);
    rng.shuffle(windows);
    std::vector<size_t> idx;
    for (size_t w : windows) {
        const size_t begin = idx.size();
        for (size_t r = w; r < std::min(trainRows, w + c.scale.window); ++r)
            idx.push_back(r);
        rng.shuffle(std::span<size_t>(idx.data() + begin, idx.size() - begin));
    }
    Matrix bx, by;
    std::vector<double> per;
    for (size_t b = 0; b < idx.size(); b += 128) {
        const size_t n = std::min<size_t>(128, idx.size() - b);
        const double t0 = nowSec();
        src.gather(idx, b, n, bx, by);
        per.push_back(nowSec() - t0);
    }
    return median(per) * 1e6;
}

/**
 * The same cold start, split at the layer boundaries the facade hides:
 * the calls trainSurrogate() and MindMappings::prepare() make, in the
 * same order with the same arguments, each under a span.
 */
ColdOutcome
coldTracedOnce(const ColdCtx &c, Report &rep, Tracer &tr, TracedExtras &ex,
               bool streamed)
{
    ColdOutcome out;
    const std::string name = variantName(streamed);
    Phase1Config cfg = streamed ? c.p1s : c.p1;
    std::filesystem::path dir =
        freshDir(c.opt.workDir, streamed ? "stream" : "cache");
    if (streamed)
        cfg.data.streamDir = dir.string();
    const std::string key = cfg.fingerprint(c.arch, *c.algo);
    cfg.resolve();
    const size_t tensors = c.algo->tensorCount();
    std::vector<EpochReport> history;

    const double t0 = nowSec();
    {
        Span root(tr, name);
        {
            Span phase1(tr, "core.phase1");
            ParallelContext par(cfg.threads <= 0 ? 0 : size_t(cfg.threads));
            double epochStart = 0.0;
            auto onEpoch = [&](const EpochReport &) {
                const double t = nowSec();
                ex.epochSec.push_back(t - epochStart);
                epochStart = t;
            };
            if (streamed) {
                const uint64_t written0 = writtenBytes();
                std::optional<StreamedDataset> sd;
                {
                    Span s(tr, "core.dataset");
                    sd.emplace(generateDatasetStreamed(c.arch, *c.algo,
                                                       cfg.data, &par));
                }
                const uint64_t written1 = writtenBytes();
                rep.check(!sd->reused,
                          name + ": traced Phase 1 reused a dataset");
                Rng rng(cfg.seed);
                Mlp net(sd->featureCount,
                        surrogateTopology(cfg.hidden, sd->outputCount), rng);
                RegressionTrainer trainer(net, cfg.train, &par);
                ShardedDatasetReader reader(sd->dir, 0, c.scale.prefetch);
                ShardBatchSource trainSrc(reader, 0, sd->trainRows);
                ShardBatchSource testSrc(reader, sd->trainRows, sd->testRows);
                const double faulted0 = faultedMb();
                {
                    Span s(tr, "nn.train");
                    epochStart = nowSec();
                    history = trainer.fit(
                        trainSrc, sd->testRows > 0 ? &testSrc : nullptr, rng,
                        onEpoch);
                }
                ex.writeMb = double(written1 - written0) / kMiB;
                // Shards are read through mmap, so the read volume is the
                // memory paged in while training (shard pages mapped on
                // each cache load, plus the decoded copies).
                ex.readMb = faultedMb() - faulted0;
                ex.prefetched = reader.prefetchedShards();
                ex.prefetchDropped = reader.droppedPrefetches();
                ex.trainRows = sd->trainRows;
                ex.surrogate.emplace(std::move(net),
                                     FeatureTransform{sd->featureLogPrefix},
                                     std::move(sd->inputNorm),
                                     std::move(sd->outputNorm), tensors);
            } else {
                SurrogateCache cache(dir.string());
                {
                    Span s(tr, "core.cache");
                    rep.check(!cache.load(key).has_value(),
                              name + ": fresh cache dir returned a hit");
                }
                std::optional<SurrogateDataset> ds;
                {
                    Span s(tr, "core.dataset");
                    ds.emplace(generateDataset(c.arch, *c.algo, cfg.data,
                                               &par));
                }
                Rng rng(cfg.seed);
                Mlp net(ds->featureCount,
                        surrogateTopology(cfg.hidden, ds->outputCount), rng);
                RegressionTrainer trainer(net, cfg.train, &par);
                {
                    Span s(tr, "nn.train");
                    epochStart = nowSec();
                    history = trainer.fit(ds->xTrain, ds->yTrain, ds->xTest,
                                          ds->yTest, rng, onEpoch);
                }
                ex.trainRows = ds->xTrain.rows();
                ex.surrogate.emplace(std::move(net),
                                     FeatureTransform{ds->featureLogPrefix},
                                     std::move(ds->inputNorm),
                                     std::move(ds->outputNorm), tensors);
                Span s(tr, "core.cache");
                cache.store(key, *ex.surrogate);
            }
        }
        Span s(tr, "phase2.mm");
        out.searches = searchAll(c, *ex.surrogate);
    }
    out.sec = nowSec() - t0;
    if (!history.empty())
        out.testLoss = history.back().testLoss;
    if (streamed)
        ex.gatherUs = gatherUsPerBatch(c, dir, ex.trainRows);
    std::filesystem::remove_all(dir);
    return out;
}

void
checkOutcome(const ColdCtx &c, Report &rep, const ColdOutcome &o,
             const ColdOutcome &first, const std::string &name)
{
    rep.attempted();
    rep.check(o.searches.size() == size_t(c.scale.runs),
              name + ": wrong number of searches");
    for (size_t r = 0; r < o.searches.size(); ++r) {
        const SearchResult &s = o.searches[r];
        if (s.failed())
            rep.failed();
        rep.check(s.steps == c.scale.steps,
                  name + ": search ran a different step count");
        checkMapping(rep, *c.model, s.best, s.bestNormEdp,
                     name + " search " + std::to_string(r));
        // Same seed, same inputs: every repetition must be bitwise the
        // first one, traced or not.
        if (r < first.searches.size())
            rep.check(sameBits(s.bestNormEdp, first.searches[r].bestNormEdp)
                          && s.best == first.searches[r].best,
                      name + ": repetition differs from the first");
    }
    rep.check(sameBits(o.testLoss, first.testLoss),
              name + ": test loss differs between repetitions");
}

double
mappingNormEdp(const ColdOutcome &o)
{
    std::vector<double> v;
    for (const SearchResult &s : o.searches)
        v.push_back(s.bestNormEdp);
    return geomean(v);
}

Matrix
gaussianMatrix(size_t rows, size_t cols, Rng &rng, double scale)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = float(rng.gaussian(0.0, scale));
    return m;
}

/**
 * Replay single layers at the shapes Phase-1 training issues: the MLP
 * per batch-128 step, each DenseLayer, each GEMM, and the cost-model
 * labeling kernel.
 */
void
replayLayers(const ColdCtx &c, Report &rep, TracedExtras &ex,
             double trainSec)
{
    const size_t batch = 128;
    const int blocks = c.opt.tiny ? 3 : 15;
    const int per = c.opt.tiny ? 2 : 20;
    Rng rng(c.opt.seed ^ 0x1a7e5ULL);

    // Cost-model labeling: the batched kernel on representative
    // problems, as dataset generation calls it.
    {
        double sec = 0.0;
        size_t rows = 0;
        for (int p = 0; p < 4; ++p) {
            Problem prob = sampleRepresentativeProblem(*c.algo, rng);
            MapSpace space(c.arch, prob);
            CostModel model(space);
            std::vector<Mapping> ms;
            const size_t n = c.opt.tiny ? 64 : 2048;
            for (size_t i = 0; i < n; ++i)
                ms.push_back(space.randomValid(rng));
            std::vector<CostResult> res(n);
            sec += timePerCall(
                [&] {
                    model.evaluateBatch(std::span<const Mapping>(ms),
                                        std::span<CostResult>(res));
                },
                1, c.opt.tiny ? 2 : 5);
            rows += n;
        }
        rep.metric("costmodel.label_ns_per_mapping", sec / double(rows) * 1e9,
                   "ns");
    }

    Mlp net = ex.surrogate->net();
    Matrix x = gaussianMatrix(batch, net.inputDim(), rng, 1.0);
    Matrix g = gaussianMatrix(batch, net.outputDim(), rng, 1e-3);
    const double fwd = timePerCall([&] { net.forward(x); }, per, blocks);
    net.forward(x);
    const double bwd = timePerCall(
        [&] {
            net.zeroGrad();
            net.backwardInPlace(g);
        },
        per, blocks);
    SgdOptimizer sgd(1e-6, 0.9);
    sgd.attach(net.params(), net.grads());
    const double optStep = timePerCall([&] { sgd.step(); }, per, blocks);
    rep.metric("nn.forward_us", fwd * 1e6, "us");
    rep.metric("nn.backward_us", bwd * 1e6, "us");
    rep.metric("nn.optimizer_us", optStep * 1e6, "us");

    Matrix in = x;
    for (size_t i = 0; i < net.layerCount(); ++i) {
        DenseLayer layer = net.layer(i);
        const std::string L = std::string("L").append(std::to_string(i));
        const size_t k = layer.inDim();
        const size_t n = layer.outDim();
        const double lf =
            timePerCall([&] { layer.forward(in); }, per, blocks);
        Matrix out = layer.forward(in);
        Matrix dOut = gaussianMatrix(batch, n, rng, 1e-3);
        Matrix dIn;
        const double lb = timePerCall(
            [&] {
                layer.zeroGrad();
                layer.backwardInto(dOut, dIn);
            },
            per, blocks);
        rep.metric("nn." + L + ".forward_us", lf * 1e6, "us");
        rep.metric("nn." + L + ".backward_us", lb * 1e6, "us");

        // The three GEMMs DenseLayer issues per step (nn/dense.cpp).
        const double flops = 2.0 * double(batch) * double(k) * double(n);
        Matrix w = gaussianMatrix(n, k, rng, 0.1);
        Matrix c1(batch, n);
        Matrix dW(n, k);
        Matrix dX(batch, k);
        const double tf = timePerCall(
            [&] { gemm(false, true, 1.0f, in, w, 0.0f, c1); }, per, blocks);
        const double tw = timePerCall(
            [&] { gemm(true, false, 1.0f, dOut, in, 1.0f, dW); }, per,
            blocks);
        const double tx = timePerCall(
            [&] { gemm(false, false, 1.0f, dOut, w, 0.0f, dX); }, per,
            blocks);
        const std::string G = "tensor.gemm." + L;
        rep.metric(G + ".fwd.gflops", flops / tf * 1e-9, "GFLOP/s");
        rep.metric(G + ".dw.gflops", flops / tw * 1e-9, "GFLOP/s");
        rep.metric(G + ".dx.gflops", flops / tx * 1e-9, "GFLOP/s");
        in = out;
    }

    const double stepsPerEpoch =
        std::ceil(double(ex.trainRows) / double(batch));
    const double replayed =
        double(c.p1.train.epochs) * stepsPerEpoch * (fwd + bwd + optStep);
    const double frac = replayed / trainSec;
    rep.metric("nn.accounted_frac", frac, "ratio");
    if (frac < 0.8 || frac > 1.2)
        std::cerr << "[perfbench] cold_start"
                  << ": replayed forward+backward+optimizer time explains "
                  << frac * 100.0
                  << "% of nn.train_s; the rest is batch gather, loss, "
                     "shuffle and per-epoch test evaluation"
                  << std::endl;
}


} // namespace

struct ColdStage::Impl
{
    ColdCtx c;
    // Index 0: in RAM, 1: streamed.
    std::vector<double> untraced[2];
    std::optional<ColdOutcome> first[2];
    std::vector<double> traced;
    TracedExtras ex[2];

    Impl(const Options &opt, const Family &fam)
        : c{opt,       scaleFor(opt), AcceleratorSpec::paperDefault(),
            fam.algo,  fam.target,    {},
            {},        {},            {},
            0.0}
    {
    }
};

ColdStage::ColdStage(const Options &opt, const Family &fam)
    : impl(std::make_unique<Impl>(opt, fam))
{
    ColdCtx &c = impl->c;
    c.p1.preset = SurrogatePreset::Fast;
    c.p1.data.samples = c.scale.samples;
    c.p1.train.epochs = c.scale.epochs;
    c.p1.threads = 1;
    // Phase-1 seeds belong to the fixed spec (see searchSeed).
    c.p1.seed = 1;
    c.p1.data.seed = 17;
    c.p1s = c.p1;
    c.p1s.data.shardSize = c.scale.shardSize;
    c.p1s.train.shuffleWindow = c.scale.window;
    // The facade's reader takes its prefetch depth from the
    // environment; set it before any thread exists.
    setenv("MM_PREFETCH_SHARDS", std::to_string(c.scale.prefetch).c_str(), 1);
}

ColdStage::~ColdStage() = default;

void
ColdStage::setUp()
{
    setup(impl->c);
}

void
ColdStage::repeat(Report &rep, Tracer &tr)
{
    Impl &s = *impl;
    for (int v = 0; v < 2; ++v) {
        const bool streamed = v == 1;
        if (!tr.enabled) {
            ColdOutcome o = coldOnce(s.c, rep, streamed);
            if (!s.first[v])
                s.first[v] = o;
            checkOutcome(s.c, rep, o, *s.first[v], variantName(streamed));
            s.untraced[v].push_back(o.sec);
            continue;
        }
        s.ex[v] = TracedExtras{};
        ColdOutcome o = coldTracedOnce(s.c, rep, tr, s.ex[v], streamed);
        checkOutcome(s.c, rep, o, *s.first[v], variantName(streamed));
        if (!streamed)
            s.traced.push_back(o.sec);
    }
}

void
ColdStage::report(Report &rep, Tracer &tr)
{
    Impl &s = *impl;
    if (!s.c.opt.trace) {
        rep.metric("cold_start_s", fastest(s.untraced[0]), "s");
        rep.metric("cold_start_streamed_s", fastest(s.untraced[1]), "s");
        rep.metric("surrogate_test_loss", s.first[0]->testLoss, "loss");
        rep.metric("mapping_norm_edp", mappingNormEdp(*s.first[0]), "x");
        rep.detail("cold_start_reps", double(s.untraced[0].size()));
        rep.detail("cold_start_streamed.test_loss", s.first[1]->testLoss);
        rep.detail("cold_start_streamed.mapping_norm_edp",
                   mappingNormEdp(*s.first[1]));
        rep.detail("random_baseline_norm_edp", s.c.randomBaseline);
        return;
    }

    // Phase-1 layers from the in-RAM cold start, shard_store from the
    // streamed one.
    const double trainSec =
        median(tr.durationsUnder("nn.train", "cold_start"));
    rep.metric("core.dataset_s",
               median(tr.durationsUnder("core.dataset", "cold_start")), "s");
    rep.metric("nn.train_s", trainSec, "s");
    rep.metric("nn.epoch_s_p50", median(s.ex[0].epochSec), "s");
    rep.metric("phase2.mm_s",
               median(tr.durationsUnder("phase2.mm", "cold_start")), "s");
    rep.metric("shard.write_mb", s.ex[1].writeMb, "MB");
    rep.metric("shard.read_mb", s.ex[1].readMb, "MB");
    rep.metric("shard.prefetched", double(s.ex[1].prefetched), "count");
    rep.metric("shard.prefetch_dropped", double(s.ex[1].prefetchDropped),
               "count");
    rep.metric("shard.gather_us_per_batch", s.ex[1].gatherUs, "us");
    replayLayers(s.c, rep, s.ex[0], trainSec);
    const double tracedMed = median(s.traced);
    const double untracedMed = median(s.untraced[0]);
    rep.metric("trace.cold_overhead_frac",
               (tracedMed - untracedMed) / untracedMed, "ratio");
    rep.detail("trace.cold_start_s.untraced", untracedMed);
    rep.detail("trace.cold_start_s.traced", tracedMed);
}

} // namespace perfbench
