/**
 * @file
 * Shared plumbing of mm_perfbench: run options, the metric
 * report, the in-memory span tracer, process counters and the
 * correctness checks every workload applies to the mappings it gets
 * back.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * library's public functions; nothing inside the library is
 * instrumented. A disabled tracer records nothing, so untraced runs
 * pay no tracing cost.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/phase1.hpp"
#include "core/surrogate.hpp"
#include "costmodel/cost_model.hpp"

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs for the smoke test; numbers are meaningless. */
    bool tiny = false;
    /** Where the full result and the span dump are written. */
    std::filesystem::path outDir = ".bench_out";
    /** Scratch root for caches and shard stores (emptied at exit). */
    std::filesystem::path workDir = ".bench_work";
};

/** Seconds on the steady clock since an arbitrary fixed origin. */
double nowSec();

/** Median of @p v (NaN when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] of @p v. */
double quantile(std::vector<double> v, double q);

/**
 * The time a gated metric reports from a run's timing samples: the
 * fastest (NaN when empty). On a shared host the speed flips between
 * fast and slow spells lasting seconds (MM steps/s within one run: 10th
 * percentile 10.9k, 90th 17.6k), so a run's median moves with the share
 * of time the host was slow. In six runs of one seed, the per-run
 * median of MM steps/s ranged 11.4k-13.8k, the best sample 18.5k-19.9k.
 */
double fastest(const std::vector<double> &secs);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/**
 * Median seconds per call of @p fn: @p blocks timed blocks of
 * @p perBlock calls each.
 */
double timePerCall(const std::function<void()> &fn, int perBlock,
                   int blocks);

/** Metrics, counts and checks of one run; printed as the last line. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record a correctness check; a failed one makes correct false. */
    void check(bool ok, const std::string &what);

    void attempted(uint64_t n = 1) { attemptedOps += n; }
    void failed(uint64_t n = 1) { failedOps += n; }

    /** Free-form detail kept in the written-out result only. */
    void detail(const std::string &key, double value);

    bool correct() const { return checksFailed == 0; }

    /** The one-line result object the harness contract asks for. */
    std::string resultLine() const;

    /** Full result: metadata, metrics, details, check tallies. */
    std::string fullJson(const std::string &metaJson,
                         const std::string &spansJson) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> details;
    uint64_t attemptedOps = 0;
    uint64_t failedOps = 0;
    uint64_t checksRun = 0;
    uint64_t checksFailed = 0;
};

/** In-memory span recorder (name, parent, start, end). */
class Tracer
{
  public:
    bool enabled = false;

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string &name);
    void end(int id);

    /** Durations of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Durations of closed spans called @p name below a @p root span. */
    std::vector<double> durationsUnder(const std::string &name,
                                       const std::string &root) const;

    /** Sum of durations of spans called @p name. */
    double total(const std::string &name) const;

    /** Span duration minus the time its direct children cover. */
    double selfTotal(const std::string &name) const;

    /** All spans as a JSON array. */
    std::string toJson() const;

  private:
    struct SpanRec
    {
        std::string name;
        int parent;
        double start;
        double end;
    };
    std::vector<SpanRec> spans;
    std::vector<int> open;
};

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &t, const std::string &name) : tr(t), id(t.begin(name)) {}
    ~Span() { tr.end(id); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tr;
    int id;
};

/** Peak resident set (VmHWM) of this process in MiB. */
double peakRssMb();

/** Bytes this process has written so far (wchar of /proc/self/io). */
uint64_t writtenBytes();

/**
 * Memory this process has paged in so far, in MiB: minor plus major
 * page faults (all threads) times the page size. mmap'd file reads
 * show up here, where /proc/self/io's rchar misses them.
 */
double faultedMb();

/** A new, empty directory under @p root (fails the run if it exists). */
std::filesystem::path freshDir(const std::filesystem::path &root,
                               const std::string &stem);

/**
 * Check a returned mapping: it is a member of @p model's map space and
 * its normalized EDP recomputed through the reference oracle
 * (costmodel/reference_eval) equals @p reportedNormEdp bit for bit.
 */
void checkMapping(Report &rep, const mm::CostModel &model,
                  const mm::Mapping &m, double reportedNormEdp,
                  const std::string &what);

/**
 * Phase-1 configuration of the warm surrogate the serving stage's pool
 * trains in setup and the search stage copies (Fast topology, one
 * lane, fixed seeds).
 */
mm::Phase1Config warmPhase1(const Options &opt);

/** True when two doubles have the same bit pattern. */
bool sameBits(double a, double b);

/**
 * The problem family a workload runs on: its algorithm, the held-out
 * target its searches map, and whether small-cap branch-and-bound
 * requests join the serving mix.
 */
struct Family
{
    std::string name;
    const mm::AlgorithmSpec *algo;
    mm::Problem target;
    bool bbInServeMix;
};

/** The family behind workload @p name; throws for an unknown name. */
Family familyFor(const std::string &name);

/**
 * A workload is the same three stages on one family, set up before
 * anything is timed; the cold and search stages then take turns, and
 * the serving stage runs last:
 *
 *  - ColdStage: spec -> trained surrogate -> mapping, Phase 1 in RAM
 *    through MindMappings::prepare() and out of core through
 *    trainSurrogate() with a shard store, fresh dirs every time.
 *  - SearchStage: iso-step MM, MM-P, SA, GA, Random and RL on the
 *    target with the warm surrogate, then certifyOptimum.
 *  - ServeStage: an open-loop window against an in-process
 *    SearchServer with a warm surrogate pool.
 *
 * setUp() runs again after every untraced round (setup_s is the
 * median of all setups). repeat() runs one repetition, traced
 * when the tracer is enabled, and report() reports the stage's
 * end-to-end metrics (untraced run) or per-layer metrics (traced run).
 * The serving stage runs one open-loop window per mode in run().
 */
class ColdStage
{
  public:
    ColdStage(const Options &opt, const Family &fam);
    ~ColdStage();
    void setUp();
    void repeat(Report &rep, Tracer &tr);
    void report(Report &rep, Tracer &tr);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

class ServeStage
{
  public:
    ServeStage(const Options &opt, const Family &fam);
    ~ServeStage();
    void setUp();
    /** The pool's warm surrogate for the family (valid after setUp). */
    const mm::Surrogate &warmSurrogate() const;
    void run(double seconds, Report &rep, Tracer &tr);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

class SearchStage
{
  public:
    SearchStage(const Options &opt, const Family &fam);
    ~SearchStage();
    void setUp(const mm::Surrogate &warm);
    void repeat(Report &rep, Tracer &tr);
    void report(Report &rep, Tracer &tr);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/** Set up every stage of @p fam, then run them in turn. */
void runWorkload(const Options &opt, const Family &fam, Report &rep,
                 Tracer &tr);

} // namespace perfbench
