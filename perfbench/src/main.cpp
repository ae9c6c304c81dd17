/**
 * @file
 * mm_perfbench: runs one benchmark workload through the library's
 * public API and prints its metrics. Normally launched by run.py:
 *
 *   mm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                [--tiny] [--out-dir <dir>] [--work-dir <dir>]
 *                [--git-sha <sha>]
 *
 * stdout: one {"meta": ...} line, then the result line
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The full result (metadata, metrics, details, spans) is also written to
 * <out-dir>/<workload>-seed<n>-trace<t>.json.
 */
#include <sched.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>

#include "harness.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mm_perfbench: " << why
              << "\nusage: mm_perfbench --workload "
                 "{cnn|mttkrp} "
                 "--seed N --seconds S --trace {0|1} [--tiny] "
                 "[--out-dir D] [--work-dir D] [--git-sha SHA]\n";
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/**
 * The GEMM macro-kernel the library's runtime dispatch selects: the
 * same compile-time guard and CPU tests as resolveMacroKernel() in
 * src/tensor/gemm.cpp, which exposes no accessor. Both files are built
 * with the same flags, so the guard resolves the same way.
 */
std::string
isaDispatch()
{
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__)    \
    && !defined(MM_GEMM_NO_MULTIVERSION) && !defined(__AVX512F__)
    if (__builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512vl"))
        return "avx512";
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return "avx2";
#endif
    return "portable";
}

std::string
compilerId()
{
#if defined(__clang__)
    return __VERSION__;
#else
    return std::string("g++ ") + __VERSION__;
#endif
}

int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return int(sysconf(_SC_NPROCESSORS_ONLN));
    return CPU_COUNT(&set);
}

std::string
metaJson(const Options &opt, const std::string &gitSha)
{
    auto q = [](const std::string &s) { return "\"" + s + "\""; };
    return "{\"workload\": " + q(opt.workload)
           + ", \"seed\": " + std::to_string(opt.seed)
           + ", \"seconds\": " + std::to_string(opt.seconds)
           + ", \"trace\": " + (opt.trace ? "1" : "0")
           + ", \"tiny\": " + (opt.tiny ? "true" : "false")
           + ", \"git_sha\": " + q(gitSha)
           + ", \"compiler\": " + q(compilerId())
           + ", \"cpu_model\": " + q(cpuModel())
           + ", \"nproc\": " + std::to_string(affinityCpus())
           + ", \"isa_dispatch\": " + q(isaDispatch()) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string gitSha = "unknown";
    bool haveWorkload = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
                haveWorkload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = t == "1";
                haveTrace = true;
            } else if (arg == "--tiny") {
                opt.tiny = true;
            } else if (arg == "--out-dir") {
                opt.outDir = value();
            } else if (arg == "--work-dir") {
                opt.workDir = value();
            } else if (arg == "--git-sha") {
                gitSha = value();
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (!haveWorkload || !haveTrace)
        usage("--workload and --trace are required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");

    std::optional<perfbench::Family> fam;
    try {
        fam = perfbench::familyFor(opt.workload);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }

    const std::string meta = metaJson(opt, gitSha);
    perfbench::Report rep;
    perfbench::Tracer tracer;
    int status = 0;
    try {
        std::filesystem::remove_all(opt.workDir);
        std::filesystem::create_directories(opt.workDir);
        perfbench::runWorkload(opt, *fam, rep, tracer);
    } catch (const std::exception &e) {
        std::cerr << "mm_perfbench: " << opt.workload
                  << " failed: " << e.what() << std::endl;
        status = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.workDir, ec);
    if (status != 0)
        return status;

    std::filesystem::create_directories(opt.outDir);
    const std::filesystem::path out =
        opt.outDir
        / (opt.workload + "-seed" + std::to_string(opt.seed) + "-trace"
           + (opt.trace ? "1" : "0") + ".json");
    std::ofstream(out) << rep.fullJson(meta, tracer.toJson()) << "\n";

    std::cout << "{\"meta\": " << meta << "}\n"
              << rep.resultLine() << std::endl;
    return 0;
}
