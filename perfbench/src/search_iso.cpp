/**
 * @file
 * The search stage: iso-step search with a warm surrogate.
 *
 * Setup copies the serving pool's warm surrogate for the family. Each
 * iteration then runs MM, MM-P (4 chains, 1 lane), SA, GA, Random and
 * RL for the same step budget on the family's held-out target through
 * runMany and the searcher registry, and certifyOptimum at a fixed node
 * cap. Seeds repeat across iterations, so every iteration must return
 * bitwise the same mappings; iterations only add timing samples.
 *
 * The traced run puts a span around every runMany / certifyOptimum call
 * and replays the per-step primitives (surrogate gradient and batch
 * prediction, projection, cost-model EDP, partial-assignment bound).
 */
#include <algorithm>
#include <map>
#include <optional>

#include "bound/bb_search.hpp"
#include "core/gradient_search.hpp"
#include "mapping/codec.hpp"
#include "harness.hpp"
#include "search/orchestrator.hpp"

namespace perfbench {

namespace {

using namespace mm;

struct Method
{
    std::string key;  ///< metric key: mm, mmp, sa, ga, random, rl
    std::string spec; ///< registry spec
    int runs;
};

constexpr uint64_t kSearchSeed = 31;

struct IsoScale
{
    int64_t steps;
    int64_t certNodes;
    /** certifyOptimum calls per target and iteration (timing samples). */
    int certCalls;
    std::vector<Method> methods;
};

IsoScale
scaleFor(const Options &opt)
{
    // Runs per method: each run is one timing sample (MM ~40 ms, SA,
    // GA and Random ~3 ms each), and each rate gets 0.3-0.7 s of an
    // iteration. certifyOptimum (0.35-0.8 s a call) runs twice for more
    // samples. Single searches also vary several-fold from seed to
    // seed, so edp_geomean needs many of them. RL costs ~0.6-0.8 s a
    // run.
    const bool t = opt.tiny;
    return {t ? 40 : 500,
            t ? 20 : 300,
            2,
            {{"mm", "MM", t ? 1 : 16},
             {"mmp", "MM-P:chains=4,threads=1", t ? 1 : 16},
             {"sa", "SA", t ? 1 : 36},
             {"ga", "GA", t ? 1 : 36},
             {"random", "Random", t ? 1 : 36},
             {"rl", "RL", 1}}};
}

struct Target
{
    const AlgorithmSpec *algo;
    Problem problem;
    std::optional<MapSpace> space;
    std::optional<CostModel> model;
    std::optional<Surrogate> surrogate;
};

/** One iteration's outcome: per-run wall/steps and every result. */
struct Iteration
{
    std::map<std::string, std::vector<double>> wall;
    std::map<std::string, std::vector<int64_t>> steps;
    std::vector<SearchResult> results; ///< problem-major, method, run
    std::vector<BBOutcome> certs; ///< problem-major, call
    std::vector<double> certifySec;
    double totalSec = 0.0;
};

Iteration
runIteration(const IsoScale &s, std::vector<Target> &targets, Report &rep,
             Tracer &tr)
{
    Iteration it;
    const double t0 = nowSec();
    for (size_t p = 0; p < targets.size(); ++p) {
        Target &t = targets[p];
        SearcherBuildContext bctx{*t.model, &*t.surrogate};
        for (const Method &m : s.methods) {
            // One runMany call per run, each timed: the host's speed
            // swings ±25% from one half second to the next, and the
            // median of many short samples rides that out better than a
            // few long ones. The seeds are runMany's own for a batch of
            // m.runs. Search seeds are fixed spec, as in the cold stage:
            // a searcher's cost per step depends on the mappings its
            // seed leads it through (SA/GA steps/s moved ~20% between
            // run seeds), and edp_geomean must repeat exactly.
            const uint64_t base = kSearchSeed + p;
            for (int r = 0; r < m.runs; ++r) {
                MultiRunOptions mo;
                mo.runs = 1;
                mo.seedFor = [base, r](int) { return repetitionSeed(base, r); };
                mo.threads = 1;
                const double m0 = nowSec();
                MultiRunResult res;
                {
                    Span sp(tr, "search." + m.key);
                    res = runMany(m.spec, bctx,
                                  SearchBudget::bySteps(s.steps), mo);
                }
                it.wall[m.key].push_back(nowSec() - m0);
                rep.attempted();
                rep.failed(uint64_t(res.failedRuns));
                it.steps[m.key].push_back(res.runs.at(0).steps);
                it.results.push_back(std::move(res.runs.at(0)));
            }
        }
        for (int k = 0; k < s.certCalls; ++k) {
            const double c0 = nowSec();
            {
                Span sp(tr, "bound.certify");
                it.certs.push_back(certifyOptimum(*t.model, s.certNodes));
            }
            it.certifySec.push_back(nowSec() - c0);
            rep.attempted();
        }
    }
    it.totalSec = nowSec() - t0;
    return it;
}

void
checkIteration(const IsoScale &s, std::vector<Target> &targets,
               const Iteration &it, const Iteration &first, Report &rep)
{
    size_t i = 0;
    for (size_t p = 0; p < targets.size(); ++p) {
        double bestFound = it.certs[p * size_t(s.certCalls)].bestNormEdp;
        for (const Method &m : s.methods) {
            for (int r = 0; r < m.runs; ++r, ++i) {
                const SearchResult &res = it.results[i];
                const std::string what = targets[p].problem.name + " "
                                         + m.spec + " run "
                                         + std::to_string(r);
                rep.check(!res.failed(), what + " failed: " + res.error);
                rep.check(res.steps == s.steps,
                          what + " ran a different step count");
                checkMapping(rep, *targets[p].model, res.best,
                             res.bestNormEdp, what);
                rep.check(sameBits(res.bestNormEdp,
                                   first.results[i].bestNormEdp)
                              && res.best == first.results[i].best,
                          what + " differs from the first iteration");
                bestFound = std::min(bestFound, res.bestNormEdp);
            }
        }
        // Every call certifies the same bound, which no search beat.
        for (int k = 0; k < s.certCalls; ++k) {
            const size_t j = p * size_t(s.certCalls) + size_t(k);
            const BBOutcome &c = it.certs[j];
            const std::string what = targets[p].problem.name + " certify "
                                     + std::to_string(k);
            checkMapping(rep, *targets[p].model, c.best, c.bestNormEdp, what);
            rep.check(c.certifiedNormEdp > 0.0
                          && c.certifiedNormEdp <= bestFound,
                      what + ": certified bound above the best EDP found");
            rep.check(sameBits(c.certifiedNormEdp,
                               first.certs[j].certifiedNormEdp),
                      what + " differs from the first iteration");
        }
    }
}

/** Per-step primitives of the searchers, timed in isolation. */
void
replayPrimitives(std::vector<Target> &targets, const Options &opt,
                 Report &rep)
{
    const int blocks = opt.tiny ? 3 : 15;
    const int per = opt.tiny ? 4 : 50;
    Rng rng(opt.seed ^ 0xfeedULL);

    Target &first = targets[0];
    MappingCodec codec(*first.space);
    Surrogate &sur = *first.surrogate;
    std::vector<Mapping> ms;
    for (int i = 0; i < 64; ++i)
        ms.push_back(first.space->randomValid(rng));
    std::vector<std::vector<double>> raw;
    std::vector<std::vector<double>> z;
    for (const Mapping &m : ms) {
        raw.push_back(codec.encode(m));
        z.push_back(sur.normalizeInput(raw.back()));
    }

    size_t k = 0;
    std::vector<double> grad;
    const double gradSec = timePerCall(
        [&] { sur.gradient(z[k++ % z.size()], grad); }, per, blocks);
    rep.metric("surrogate.gradient_us", gradSec * 1e6, "us");

    // Projection as a gradient step needs it: decode a perturbed
    // feature vector (round, clamp, argsort, MapSpace::project).
    std::vector<std::vector<double>> noisy = raw;
    for (auto &v : noisy)
        for (size_t f = codec.pidCount(); f < v.size(); ++f)
            v[f] += rng.gaussian(0.0, 0.75);
    k = 0;
    const double projSec = timePerCall(
        [&] { codec.decode(noisy[k++ % noisy.size()]); }, per, blocks);
    rep.metric("mapping.projection_us", projSec * 1e6, "us");

    // MM-P with 4 chains scores 4 rows per surrogate batch.
    const size_t rows = 4;
    Matrix batch(rows, sur.featureCount());
    for (size_t r = 0; r < rows; ++r)
        for (size_t f = 0; f < sur.featureCount(); ++f)
            batch(r, f) = float(z[r][f]);
    const double predSec = timePerCall(
        [&] { sur.predictNormEdpBatch(batch); }, per, blocks);
    rep.metric("surrogate.predict_batch_us_per_row",
               predSec / double(rows) * 1e6, "us");

    double batchSec = 0.0;
    double scalarSec = 0.0;
    double boundSec = 0.0;
    for (Target &t : targets) {
        std::vector<Mapping> cand;
        for (int i = 0; i < 256; ++i)
            cand.push_back(t.space->randomValid(rng));
        std::vector<double> out(cand.size());
        batchSec += timePerCall(
                        [&] {
                            t.model->edpBatch(std::span<const Mapping>(cand),
                                              std::span<double>(out));
                        },
                        1, blocks)
                    / double(cand.size());
        k = 0;
        scalarSec += timePerCall([&] { t.model->edp(cand[k++ % cand.size()]); },
                                 per, blocks);

        BoundTables tables(*t.space);
        std::vector<PartialAssignment> partial;
        for (size_t i = 0; i < cand.size(); ++i)
            partial.push_back(PartialAssignment::dimPrefixOf(
                cand[i], i % (t.space->rank() + 1)));
        k = 0;
        boundSec += timePerCall(
            [&] { tables.bound(partial[k++ % partial.size()]); }, per,
            blocks);
    }
    const double n = double(targets.size());
    rep.metric("costmodel.edp_batch_ns_per_mapping", batchSec / n * 1e9,
               "ns");
    rep.metric("costmodel.edp_scalar_ns_per_mapping", scalarSec / n * 1e9,
               "ns");
    rep.metric("bound.bound_ns_per_call", boundSec / n * 1e9, "ns");
}

} // namespace

struct SearchStage::Impl
{
    const Options &opt;
    IsoScale scale;
    AcceleratorSpec arch;
    std::vector<Target> targets;
    std::vector<Iteration> iters;  ///< untraced
    std::vector<Iteration> traced;
};

SearchStage::SearchStage(const Options &opt, const Family &fam)
    : impl(std::make_unique<Impl>(
          Impl{opt, scaleFor(opt), AcceleratorSpec::paperDefault(), {}, {},
               {}}))
{
    impl->targets.push_back({fam.algo, fam.target, {}, {}, {}});
}

SearchStage::~SearchStage() = default;

void
SearchStage::setUp(const Surrogate &warm)
{
    // The target's map space and cost model, and a private copy of the
    // warm surrogate (searchers must not share the pool's master).
    for (Target &t : impl->targets) {
        t.model.reset();
        t.space.reset();
        t.space.emplace(impl->arch, t.problem);
        t.model.emplace(*t.space);
        t.surrogate.emplace(warm);
    }
}

void
SearchStage::repeat(Report &rep, Tracer &tr)
{
    Impl &m = *impl;
    Iteration it = runIteration(m.scale, m.targets, rep, tr);
    checkIteration(m.scale, m.targets, it,
                   m.iters.empty() ? it : m.iters.front(), rep);
    (tr.enabled ? m.traced : m.iters).push_back(std::move(it));
}

void
SearchStage::report(Report &rep, Tracer &tr)
{
    const Options &opt = impl->opt;
    const IsoScale &s = impl->scale;
    std::vector<Target> &targets = impl->targets;
    const std::vector<Iteration> &iters = impl->iters;
    const std::vector<Iteration> &traced = impl->traced;

    // Steps per second of a single run at the fastest run time seen;
    // with several methods (SA, GA, Random), their runs' steps over the
    // sum of their fastest times.
    auto rate = [&](const std::vector<Iteration> &its,
                    const std::vector<std::string> &keys) {
        double steps = 0.0;
        double wall = 0.0;
        for (const std::string &k : keys) {
            std::vector<double> sec;
            for (const Iteration &it : its)
                sec.insert(sec.end(), it.wall.at(k).begin(),
                           it.wall.at(k).end());
            steps += double(s.steps);
            wall += fastest(sec);
        }
        return steps / wall;
    };
    auto totals = [](const std::vector<Iteration> &its) {
        std::vector<double> v;
        for (const Iteration &it : its)
            v.push_back(it.totalSec);
        return median(v);
    };

    if (!opt.trace) {
        std::vector<double> bests;
        for (const SearchResult &r : iters.front().results)
            bests.push_back(r.bestNormEdp);
        std::vector<double> certs;
        std::vector<double> certSec;
        for (const BBOutcome &c : iters.front().certs)
            certs.push_back(c.certifiedNormEdp);
        for (const Iteration &it : iters)
            certSec.insert(certSec.end(), it.certifySec.begin(),
                           it.certifySec.end());
        rep.metric("mm_steps_per_s", rate(iters, {"mm"}), "1/s");
        rep.metric("mmp_steps_per_s", rate(iters, {"mmp"}), "1/s");
        rep.metric("cm_steps_per_s", rate(iters, {"sa", "ga", "random"}),
                   "1/s");
        rep.metric("rl_steps_per_s", rate(iters, {"rl"}), "1/s");
        rep.metric("edp_geomean", geomean(bests), "x");
        rep.metric("cert_norm_edp", geomean(certs), "x");
        // certify_s is reported from the traced run only: its time moved
        // with the host more than any gated metric (10-seed spreads
        // 0.20 and 0.32 of the fastest call), BB's tables being the
        // stage's largest working set.
        rep.detail("certify_s.fastest", fastest(certSec));
        rep.detail("search_iterations", double(iters.size()));
        size_t i = 0;
        for (const Target &t : targets)
            for (const Method &m : s.methods) {
                std::vector<double> v;
                for (int r = 0; r < m.runs; ++r, ++i)
                    v.push_back(iters.front().results[i].bestNormEdp);
                rep.detail(t.problem.name + "." + m.key + ".norm_edp",
                           geomean(v));
            }
        for (size_t p = 0; p < targets.size(); ++p)
            rep.detail(targets[p].problem.name + ".certified_exact",
                       iters.front().certs[p * size_t(s.certCalls)].exact
                           ? 1.0
                           : 0.0);
        return;
    }

    for (const Method &m : s.methods) {
        double steps = 0.0;
        for (const Iteration &it : traced)
            for (int64_t n : it.steps.at(m.key))
                steps += double(n);
        rep.metric("search." + m.key + ".us_per_step",
                   tr.total("search." + m.key) / steps * 1e6, "us");
    }
    int64_t expanded = 0;
    int64_t pruned = 0;
    for (const Iteration &it : traced)
        for (const BBOutcome &c : it.certs) {
            expanded += c.nodesExpanded;
            pruned += c.nodesPruned;
        }
    rep.metric("certify_s", median(tr.durations("bound.certify")), "s");
    rep.metric("bound.nodes_per_s",
               double(expanded) / tr.total("bound.certify"), "1/s");
    rep.metric("bound.prune_frac",
               double(pruned) / double(expanded + pruned), "ratio");
    replayPrimitives(targets, opt, rep);
    const double untracedMed = totals(iters);
    const double tracedMed = totals(traced);
    rep.metric("trace.search_overhead_frac",
               (tracedMed - untracedMed) / untracedMed, "ratio");
    rep.detail("trace.search_iteration_s.untraced", untracedMed);
    rep.detail("trace.search_iteration_s.traced", tracedMed);
}

} // namespace perfbench
