/**
 * @file
 * The serving stage: open-loop serving against an in-process
 * SearchServer.
 *
 * Requests arrive on a seeded Poisson schedule at one fixed rate over
 * one persistent ServeClient connection; the server runs two workers
 * and every request asks for one run on one lane. The mix
 * (MM, MM-P, SA, GA, Random and, on CNN, small-cap BB) runs over a
 * fixed pool of shapes of the workload's family. Setup warms the
 * surrogate pool, so Phase 1 does no work while requests are timed.
 *
 * Latency is timed from when a request was due, not when it was sent,
 * so a stalled generator still shows up in the numbers; the generator's
 * lag is reported too. Every result's mapping is checked against the
 * reference oracle, and a seeded sample of requests is replayed offline
 * through runMany and must match the served result bit for bit.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "harness.hpp"
#include "search/orchestrator.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using namespace mm;
using namespace mm::serve;

/**
 * Offered load, fixed for every commit; a rate derived from the commit
 * under test would hide a slowdown as a lower load. When the benchmark
 * was introduced this mix saturated at ~410 rps (4-vCPU VM); at 275
 * and 200 rps, p99 swung between 40 and 250 ms from seed to seed as
 * backlogs built, so the rate is the highest tried that kept p99
 * steady (BENCHMARK.json records the same).
 */
constexpr double kRateRps = 160.0;
/** Goodput counts requests completed within this latency. */
constexpr double kLatencyLimitMs = 100.0;
/**
 * One connection: the server does not disable Nagle, so a result line
 * waits for the client's next send to carry the ACK; over three
 * connections that wait tripled p50 (~20 ms vs ~12 ms at 160 rps).
 */
constexpr int kConnections = 1;
constexpr int kWorkers = 2;
constexpr size_t kQueueCap = 64;
constexpr int kShapes = 8;
/** Requests replayed offline: untraced run (check only), traced run. */
constexpr size_t kReplayCheck = 24;
constexpr size_t kReplayTraced = 400;
/**
 * Wait at most this long after the last send for answers; requests
 * still open then count as failed, which keeps a run of a much slower
 * server within the benchmark's time limit.
 */
constexpr double kDrainSec = 30.0;

struct MixEntry
{
    std::string method;
    int64_t steps;
};

/**
 * The request mix. Small-cap BB joins it only where it reaches a leaf
 * within its cap cheaply: on CNN shapes it costs about as much as the
 * other requests, on MTTKRP shapes 15-350 ms each.
 */
std::vector<MixEntry>
requestMix(const Family &fam)
{
    std::vector<MixEntry> mix = {
        {"MM", 100},  {"MM-P:chains=4,threads=1", 100},
        {"SA", 400},  {"GA", 400},
        {"Random", 400},
    };
    if (fam.bbInServeMix)
        mix.push_back({"BB:maxNodes=8", 400});
    return mix;
}

/** Served result of one request: (bestNormEdp, best mapping). */
std::optional<std::pair<double, Mapping>>
servedBest(const JsonValue &ev)
{
    const JsonValue *runs = ev.find("runs");
    if (runs == nullptr || !runs->isArray() || runs->array.size() != 1)
        return std::nullopt;
    const JsonValue &run = runs->array[0];
    std::optional<double> edp =
        parseHexDouble(run.getStr("bestNormEdp", ""));
    const JsonValue *best = run.find("best");
    if (!edp || best == nullptr)
        return std::nullopt;
    std::optional<Mapping> m = mappingFromJson(*best);
    if (!m)
        return std::nullopt;
    return std::make_pair(*edp, std::move(*m));
}

/** What the client saw of one request; each slot has one writer. */
struct Timeline
{
    double due = 0.0;
    double sent = NAN;
    double accepted = NAN;
    double done = NAN;
    int status = 0; ///< 0 pending, 1 result, 2 rejected, 3 error
    /** Parsed on arrival, so the client keeps no raw result lines. */
    std::optional<std::pair<double, Mapping>> served;
};

struct Window
{
    std::vector<ServeRequest> reqs;
    std::vector<size_t> shapeOf;
    std::vector<Timeline> tl;
    std::vector<double> queueDepth;
    double genLagMax = 0.0;
    double span = 0.0; ///< scheduled window length (s)
    uint64_t accepted = 0, rejected = 0, failed = 0, completed = 0;
    uint64_t poolHits = 0, poolLookups = 0;
    bool drained = true; ///< every request answered before the deadline
};

/**
 * The shape pool. Its seed is fixed so every run seed offers the same
 * mean work per request; the run seed drives arrivals, the mix draw,
 * shape picks and the search seeds.
 */
std::vector<Problem>
makeShapes(const Family &fam)
{
    Rng rng(0x5a9e5ULL);
    std::vector<Problem> shapes;
    for (int i = 0; i < kShapes; ++i) {
        shapes.push_back(sampleRepresentativeProblem(*fam.algo, rng));
        shapes.back().name = fam.name + "_" + std::to_string(i);
    }
    return shapes;
}

Window
makeWindow(const Family &fam, const std::vector<Problem> &shapes,
           uint64_t seed, double rate, double seconds,
           const std::string &idPrefix)
{
    Window w;
    Rng rng(seed);
    const std::vector<MixEntry> mix = requestMix(fam);
    const size_t n = size_t(std::ceil(rate * seconds));
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        t += -std::log(1.0 - rng.uniformReal()) / rate;
        const MixEntry &m =
            mix[size_t(rng.uniformInt(0, int64_t(mix.size()) - 1))];
        const size_t s =
            size_t(rng.uniformInt(0, int64_t(shapes.size()) - 1));
        ServeRequest r;
        r.id = idPrefix + std::to_string(i);
        r.arch = "paper";
        r.algo = fam.name;
        r.problemName = shapes[s].name;
        r.bounds = shapes[s].bounds;
        r.method = m.method;
        r.steps = m.steps;
        r.runs = 1;
        r.seed = uint64_t(rng.uniformInt(1, (int64_t(1) << 31) - 1));
        w.reqs.push_back(std::move(r));
        w.shapeOf.push_back(s);
        Timeline tl;
        tl.due = t;
        w.tl.push_back(tl);
    }
    w.span = t;
    return w;
}

/** A started server with a warm surrogate pool and open connections. */
struct Rig
{
    std::unique_ptr<SearchServer> server;
    std::vector<ServeClient> clients;
};

Rig
setUpRig(const Options &opt, const Family &fam)
{
    ServeConfig cfg;
    cfg.workers = kWorkers;
    cfg.queueCap = kQueueCap;
    cfg.phase1 = warmPhase1(opt);
    cfg.useCache = false;
    Rig rig;
    rig.server = std::make_unique<SearchServer>(cfg);
    rig.server->start();
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    rig.server->pool().acquire(arch, *fam.algo);
    for (int c = 0; c < kConnections; ++c) {
        ServeClient client;
        std::string err;
        if (!client.connectTo(rig.server->port(), &err))
            throw std::runtime_error("serve: connect failed: " + err);
        rig.clients.push_back(std::move(client));
    }
    return rig;
}

/** Run one open-loop window; returns once every request has ended. */
void
runWindow(Rig &rig, Window &w, bool traced)
{
    const ServeMetrics &sm = rig.server->metrics();
    const uint64_t acc0 = sm.accepted, rej0 = sm.rejected,
                   fail0 = sm.failed, comp0 = sm.completed;
    const uint64_t hits0 = sm.poolWarmHits + sm.poolDiskHits;
    const uint64_t look0 = hits0 + sm.poolTrainings;

    std::map<std::string, size_t> index;
    for (size_t i = 0; i < w.reqs.size(); ++i)
        index[w.reqs[i].id] = i;
    std::atomic<size_t> outstanding{w.reqs.size()};

    // One reader per connection; each request's slots are written only
    // by the reader of the connection it was sent on.
    std::vector<std::thread> readers;
    for (ServeClient &client : rig.clients) {
        readers.emplace_back([&, cl = &client] {
            while (auto line = cl->readLine()) {
                const double t = nowSec();
                std::optional<JsonValue> ev = parseJson(*line);
                if (!ev)
                    continue;
                auto it = index.find(ev->getStr("id", ""));
                if (it == index.end())
                    continue;
                Timeline &tl = w.tl[it->second];
                const std::string type = ev->getStr("type", "");
                if (type == "accepted") {
                    if (traced)
                        tl.accepted = t;
                } else if (type == "result" || type == "rejected"
                           || type == "error") {
                    tl.done = t;
                    tl.status = type == "result" ? 1
                                : type == "rejected" ? 2
                                                     : 3;
                    if (tl.status == 1)
                        tl.served = servedBest(*ev);
                    outstanding.fetch_sub(1);
                }
            }
        });
    }

    const double origin = nowSec() + 0.05;
    for (size_t i = 0; i < w.reqs.size(); ++i) {
        w.tl[i].due += origin;
        const double wait = w.tl[i].due - nowSec();
        if (wait > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (traced)
            w.queueDepth.push_back(double(sm.queueDepth.load()));
        if (!rig.clients[i % rig.clients.size()].sendRequest(w.reqs[i]))
            throw std::runtime_error("serve: send failed");
        w.tl[i].sent = nowSec();
        w.genLagMax = std::max(w.genLagMax, w.tl[i].sent - w.tl[i].due);
    }
    const double deadline = nowSec() + kDrainSec;
    while (outstanding.load() > 0 && nowSec() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    w.drained = outstanding.load() == 0;
    if (!w.drained)
        std::cerr << "[perfbench] serve: " << outstanding.load()
                  << " requests still pending after the " << kDrainSec
                  << " s drain deadline count as failed" << std::endl;

    // Stopping the server shuts the connections down, which ends the
    // readers; only then is it safe to read the timelines.
    rig.server->stop();
    for (std::thread &t : readers)
        t.join();

    w.accepted = sm.accepted - acc0;
    w.rejected = sm.rejected - rej0;
    w.failed = sm.failed - fail0;
    w.completed = sm.completed - comp0;
    const uint64_t hits1 = sm.poolWarmHits + sm.poolDiskHits;
    w.poolHits = hits1 - hits0;
    w.poolLookups = hits1 + sm.poolTrainings - look0;
}

/** Per-shape map space and cost model for checking results. */
struct ShapeModels
{
    std::vector<std::unique_ptr<MapSpace>> spaces;
    std::vector<std::unique_ptr<CostModel>> models;
};

ShapeModels
buildModels(const std::vector<Problem> &shapes, const AcceleratorSpec &arch)
{
    ShapeModels sm;
    for (const Problem &p : shapes) {
        sm.spaces.push_back(std::make_unique<MapSpace>(arch, p));
        sm.models.push_back(std::make_unique<CostModel>(*sm.spaces.back()));
    }
    return sm;
}

/**
 * Check every result against the reference oracle and replay a seeded
 * sample of @p replays requests offline; returns request index ->
 * offline runMany totalWallSec.
 */
std::map<size_t, double>
checkWindow(Rig &rig, const Window &w, const Family &fam,
            const ShapeModels &models, uint64_t seed, size_t replays,
            Report &rep)
{
    // Rejected, failed and unfinished requests are failed operations
    // and goodput misses, not check failures: an overloaded server is
    // slow, not wrong.
    rep.attempted(w.reqs.size());
    std::vector<size_t> done;
    uint64_t rejected = 0, errors = 0;
    for (size_t i = 0; i < w.tl.size(); ++i) {
        const Timeline &tl = w.tl[i];
        rejected += tl.status == 2 ? 1 : 0;
        errors += tl.status == 3 ? 1 : 0;
        if (tl.status != 1) {
            rep.failed();
            continue;
        }
        const auto &served = tl.served;
        rep.check(served.has_value(),
                  "serve: unparsable result for " + w.reqs[i].id);
        if (!served)
            continue;
        checkMapping(rep, *models.models[w.shapeOf[i]], served->second,
                     served->first, "serve " + w.reqs[i].id);
        done.push_back(i);
    }
    rep.check(w.accepted + w.rejected == w.reqs.size(),
              "serve: server admitted or rejected a different number "
              "of requests than were sent");
    // Requests cut off by the drain deadline have no answer to compare.
    if (w.drained)
        rep.check(w.completed == done.size() && w.rejected == rejected
                      && w.failed == errors,
                  "serve: server counters disagree with the client");

    // served == offline: replay a seeded sample through runMany.
    Rng rng(seed ^ 0x0ff1ceULL);
    rng.shuffle(done);
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    std::map<size_t, double> offlineSec;
    for (size_t k = 0; k < std::min(replays, done.size()); ++k) {
        const size_t i = done[k];
        const ServeRequest &req = w.reqs[i];
        const CostModel &model = *models.models[w.shapeOf[i]];
        std::optional<Surrogate> copy;
        const std::string key = req.method.substr(0, req.method.find(':'));
        if (SearcherRegistry::instance().at(key).needsSurrogate)
            copy.emplace(*rig.server->pool().acquire(arch, *fam.algo));
        SearcherBuildContext bctx{model, copy ? &*copy : nullptr};
        MultiRunOptions mo;
        mo.runs = req.runs;
        mo.baseSeed = req.seed;
        mo.threads = 1;
        mo.collectTrace = false;
        MultiRunResult offline =
            runMany(req.method, bctx, budgetFor(req, 0.0), mo);
        offlineSec[i] = offline.totalWallSec;
        const auto &served = w.tl[i].served;
        rep.check(offline.runs.size() == 1 && served
                      && sameBits(offline.runs[0].bestNormEdp, served->first)
                      && offline.runs[0].best == served->second,
                  "serve: served result of " + req.id
                      + " differs from the offline replay");
    }
    return offlineSec;
}

std::vector<double>
latenciesMs(const Window &w)
{
    std::vector<double> v;
    for (const Timeline &tl : w.tl)
        if (tl.status == 1)
            v.push_back((tl.done - tl.due) * 1e3);
    return v;
}

} // namespace

struct ServeStage::Impl
{
    const Options &opt;
    const Family fam;
    const std::vector<Problem> shapes;
    // MapSpace keeps references to its arch and problem: both must
    // outlive the models.
    const AcceleratorSpec arch = AcceleratorSpec::paperDefault();
    const ShapeModels models;
    std::optional<Rig> rig;
    std::shared_ptr<Surrogate> warm;

    Impl(const Options &o, const Family &f)
        : opt(o), fam(f), shapes(makeShapes(f)),
          models(buildModels(shapes, arch))
    {
    }
};

ServeStage::ServeStage(const Options &opt, const Family &fam)
    : impl(std::make_unique<Impl>(opt, fam))
{
}

ServeStage::~ServeStage() = default;

void
ServeStage::setUp()
{
    // Server start, pool warm-up (trains the family's surrogate) and
    // connections; the last rig set up is the one measured.
    impl->warm.reset();
    impl->rig.reset();
    impl->rig.emplace(setUpRig(impl->opt, impl->fam));
    impl->warm = impl->rig->server->pool().acquire(impl->arch, *impl->fam.algo);
}

const Surrogate &
ServeStage::warmSurrogate() const
{
    return *impl->warm;
}

void
ServeStage::run(double seconds, Report &rep, Tracer &tr)
{
    const Options &opt = impl->opt;
    const Family &fam = impl->fam;
    const std::vector<Problem> &shapes = impl->shapes;
    const ShapeModels &models = impl->models;
    std::optional<Rig> &rig = impl->rig;
    const double rate = kRateRps;
    const double windowSec = opt.trace ? seconds / 2.0 : seconds;
    Window w = makeWindow(fam, shapes, opt.seed * 6151ULL + 1, rate,
                          windowSec, "u");
    runWindow(*rig, w, false);
    checkWindow(*rig, w, fam, models, opt.seed, kReplayCheck, rep);
    const std::vector<double> lat = latenciesMs(w);
    rep.detail("serve.requests", double(w.reqs.size()));
    rep.detail("serve.rate_rps", rate);
    rep.detail("serve.latency_limit_ms", kLatencyLimitMs);
    double lastDone = 0.0;
    for (const Timeline &tl : w.tl)
        lastDone = std::max(lastDone, tl.done);
    rep.detail("serve.throughput_rps",
               double(lat.size()) / (lastDone - w.tl.front().due));

    rep.detail("serve.untraced_p50_ms", quantile(lat, 0.5));
    rep.detail("serve.untraced_p99_ms", quantile(lat, 0.99));

    if (!opt.trace) {
        size_t good = 0;
        for (double l : lat)
            good += l <= kLatencyLimitMs ? 1 : 0;
        rep.metric("serve_goodput_rps", double(good) / w.span, "1/s");
        return;
    }

    // Traced window: a fresh rig (the first one was stopped to drain),
    // recording admission times and queue-depth samples.
    rig.reset();
    rig.emplace(setUpRig(opt, fam));
    tr.enabled = true;
    Window tw = makeWindow(fam, shapes, opt.seed * 6151ULL + 2, rate,
                           windowSec, "t");
    {
        Span s(tr, "serve.window");
        runWindow(*rig, tw, true);
    }
    tr.enabled = false;
    // The result line carries no wall time, so a request's run time is
    // its offline replay's runMany totalWallSec.
    const std::map<size_t, double> offlineSec = checkWindow(
        *rig, tw, fam, models, opt.seed, kReplayTraced, rep);

    // p50/p99 latency are reported from here, not as gated end-to-end
    // metrics: without TCP_NODELAY on the server a result waits for the
    // client's next send to ACK the previous segment, and that wait made
    // p50 drift 37% and p99 spread 0.30 between sets of runs.
    const std::vector<double> tlat = latenciesMs(tw);
    rep.metric("serve_p50_ms", quantile(tlat, 0.5), "ms");
    rep.metric("serve_p99_ms", quantile(tlat, 0.99), "ms");
    std::vector<double> admit, run, overhead;
    for (const Timeline &tl : tw.tl)
        if (tl.status == 1)
            admit.push_back((tl.accepted - tl.sent) * 1e3);
    for (const auto &[i, sec] : offlineSec) {
        run.push_back(sec * 1e3);
        overhead.push_back((tw.tl[i].done - tw.tl[i].due - sec) * 1e3);
    }
    rep.metric("serve.admit_ms_p50", quantile(admit, 0.5), "ms");
    rep.metric("serve.admit_ms_p99", quantile(admit, 0.99), "ms");
    rep.metric("serve.run_ms_p50", quantile(run, 0.5), "ms");
    rep.metric("serve.run_ms_p99", quantile(run, 0.99), "ms");
    rep.metric("serve.overhead_ms_p50", quantile(overhead, 0.5), "ms");
    rep.metric("serve.overhead_ms_p99", quantile(overhead, 0.99), "ms");
    rep.metric("serve.queue_depth_p99", quantile(tw.queueDepth, 0.99),
               "count");
    rep.metric("serve.accepted", double(tw.accepted), "count");
    rep.metric("serve.rejected", double(tw.rejected), "count");
    rep.metric("serve.failed", double(tw.failed), "count");
    rep.metric("serve.completed", double(tw.completed), "count");
    rep.metric("serve.pool_hit_frac",
               tw.poolLookups > 0
                   ? double(tw.poolHits) / double(tw.poolLookups)
                   : 1.0,
               "ratio");
    rep.metric("serve.gen_lag_ms_max", tw.genLagMax * 1e3, "ms");
    const double untracedP50 = quantile(lat, 0.5);
    const double tracedP50 = quantile(tlat, 0.5);
    rep.metric("trace.serve_overhead_frac",
               (tracedP50 - untracedP50) / untracedP50, "ratio");
    rep.detail("trace.serve_p50_ms.untraced", untracedP50);
    rep.detail("trace.serve_p50_ms.traced", tracedP50);
}

} // namespace perfbench
