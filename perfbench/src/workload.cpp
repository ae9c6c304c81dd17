/**
 * @file
 * The two workloads, one per problem family of the paper: each sets up
 * its stages, then gives every stage a fixed share of the run.
 */
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

namespace {

using namespace mm;

/**
 * Share of --seconds for the serving window; the cold and search stages
 * take turns for the rest. A round (two cold starts, a search iteration
 * and, untraced, a setup) takes 6-7 s, so at 50 s a run gets about six
 * rounds, and the serving window 2000 requests, 20 beyond p99. Taking
 * turns spreads each stage's samples over the whole run, so a slow
 * spell of the host does not land on one stage alone.
 */
constexpr double kServeShare = 0.25;

/** Set every stage up; returns the seconds it took. */
double
setUpAll(ColdStage &cold, ServeStage &serve, SearchStage &search)
{
    const double t0 = nowSec();
    cold.setUp();
    serve.setUp();
    search.setUp(serve.warmSurrogate());
    return nowSec() - t0;
}

/**
 * Rounds for @p seconds. With @p setupSec, every round ends with a
 * timed setup: a setup trains the warm surrogate (~0.6 s), and setups
 * spread over the run give setup_s a median over the host's fast and
 * slow spells, where five back to back caught one of them.
 */
void
takeTurns(ColdStage &cold, SearchStage &search, ServeStage &serve,
          double seconds, size_t minRounds, Report &rep, Tracer &tr,
          std::vector<double> *setupSec)
{
    const double start = nowSec();
    for (size_t r = 0; r < minRounds || nowSec() - start < seconds; ++r) {
        cold.repeat(rep, tr);
        search.repeat(rep, tr);
        if (setupSec != nullptr)
            setupSec->push_back(setUpAll(cold, serve, search));
    }
}

} // namespace

Family
familyFor(const std::string &name)
{
    if (name == "cnn")
        return {"cnn", &cnnLayerAlgo(),
                cnnProblem("ResNet_Conv_4", 16, 256, 256, 14, 14, 3, 3),
                true};
    if (name == "mttkrp")
        return {"mttkrp", &mttkrpAlgo(),
                mttkrpProblem("MTTKRP_small", 128, 256, 512, 128), false};
    throw std::invalid_argument("unknown workload " + name);
}

void
runWorkload(const Options &opt, const Family &fam, Report &rep, Tracer &tr)
{
    // The cold stage sets the shard reader's prefetch depth in the
    // environment, so it is built before the server starts threads.
    ColdStage cold(opt, fam);
    ServeStage serve(opt, fam);
    SearchStage search(opt, fam);

    std::vector<double> setupSec{setUpAll(cold, serve, search)};

    // A traced run splits its time: untraced rounds first (they give
    // the tracing overhead its baseline), then traced ones.
    const double turns = opt.seconds * (1.0 - kServeShare);
    if (!opt.trace) {
        takeTurns(cold, search, serve, turns, 3, rep, tr, &setupSec);
    } else {
        takeTurns(cold, search, serve, turns / 2.0, 2, rep, tr, nullptr);
        tr.enabled = true;
        takeTurns(cold, search, serve, turns / 2.0, 2, rep, tr, nullptr);
        tr.enabled = false;
    }
    cold.report(rep, tr);
    search.report(rep, tr);
    serve.run(opt.seconds * kServeShare, rep, tr);

    if (!opt.trace) {
        rep.metric("setup_s", median(setupSec), "s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
    }
}

} // namespace perfbench
