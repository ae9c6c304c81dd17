#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <unistd.h>

#include "costmodel/reference_eval.hpp"

namespace perfbench {

namespace {

std::string
numberJson(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

} // namespace

double
nowSec()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
fastest(const std::vector<double> &secs)
{
    return quantile(secs, 0.0);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / double(v.size()));
}

double
timePerCall(const std::function<void()> &fn, int perBlock, int blocks)
{
    fn(); // warm caches and lazily sized workspaces
    std::vector<double> per;
    per.reserve(size_t(blocks));
    for (int b = 0; b < blocks; ++b) {
        const double t0 = nowSec();
        for (int i = 0; i < perBlock; ++i)
            fn();
        per.push_back((nowSec() - t0) / double(perBlock));
    }
    return median(per);
}

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value))
        check(false, "metric " + name + " is not finite");
    metrics.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    ++checksRun;
    if (!ok) {
        if (++checksFailed <= 20)
            std::cerr << "[perfbench] CHECK FAILED: " << what << std::endl;
    }
}

void
Report::detail(const std::string &key, double value)
{
    details.emplace_back(key, numberJson(value));
}

std::string
Report::resultLine() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attemptedOps);
    out += ", \"failed\": " + std::to_string(failedOps);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += quote(metrics[i].name) + ": {\"value\": "
               + numberJson(metrics[i].value)
               + ", \"unit\": " + quote(metrics[i].unit) + "}";
    }
    out += "}}";
    return out;
}

std::string
Report::fullJson(const std::string &metaJson,
                 const std::string &spansJson) const
{
    std::string out = "{\"meta\": " + metaJson + ", \"result\": "
                      + resultLine() + ", \"checks\": {\"run\": "
                      + std::to_string(checksRun) + ", \"failed\": "
                      + std::to_string(checksFailed) + "}, \"details\": {";
    for (size_t i = 0; i < details.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += quote(details[i].first) + ": " + details[i].second;
    }
    out += "}, \"spans\": " + spansJson + "}";
    return out;
}

int
Tracer::begin(const std::string &name)
{
    if (!enabled)
        return -1;
    const int id = int(spans.size());
    spans.push_back({name, open.empty() ? -1 : open.back(), nowSec(), 0.0});
    open.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans[size_t(id)].end = nowSec();
    if (!open.empty() && open.back() == id)
        open.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRec &s : spans)
        if (s.name == name && s.end > 0.0)
            out.push_back(s.end - s.start);
    return out;
}

std::vector<double>
Tracer::durationsUnder(const std::string &name, const std::string &root) const
{
    std::vector<double> out;
    for (const SpanRec &s : spans) {
        if (s.name != name || s.end <= 0.0)
            continue;
        for (int p = s.parent; p >= 0; p = spans[size_t(p)].parent)
            if (spans[size_t(p)].name == root) {
                out.push_back(s.end - s.start);
                break;
            }
    }
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double acc = 0.0;
    for (double d : durations(name))
        acc += d;
    return acc;
}

double
Tracer::selfTotal(const std::string &name) const
{
    double acc = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != name || spans[i].end <= 0.0)
            continue;
        double self = spans[i].end - spans[i].start;
        for (const SpanRec &c : spans)
            if (c.parent == int(i) && c.end > 0.0)
                self -= c.end - c.start;
        acc += self;
    }
    return acc;
}

std::string
Tracer::toJson() const
{
    std::string out = "[";
    for (size_t i = 0; i < spans.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "{\"id\": " + std::to_string(i) + ", \"name\": "
               + quote(spans[i].name)
               + ", \"parent\": " + std::to_string(spans[i].parent)
               + ", \"start\": " + numberJson(spans[i].start)
               + ", \"end\": " + numberJson(spans[i].end) + "}";
    }
    out += "]";
    return out;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0.0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    throw std::runtime_error("VmHWM missing from /proc/self/status");
}

uint64_t
writtenBytes()
{
    std::ifstream in("/proc/self/io");
    if (!in)
        throw std::runtime_error("/proc/self/io is not readable");
    std::string key;
    uint64_t value = 0;
    while (in >> key >> value)
        if (key == "wchar:")
            return value;
    throw std::runtime_error("wchar missing from /proc/self/io");
}

double
faultedMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        throw std::runtime_error("getrusage failed");
    const double pages = double(ru.ru_minflt) + double(ru.ru_majflt);
    return pages * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::filesystem::path
freshDir(const std::filesystem::path &root, const std::string &stem)
{
    static int counter = 0;
    std::filesystem::path dir =
        root / (stem + "-" + std::to_string(counter++));
    if (std::filesystem::exists(dir))
        throw std::runtime_error("scratch dir already exists: "
                                 + dir.string());
    std::filesystem::create_directories(dir);
    return dir;
}

mm::Phase1Config
warmPhase1(const Options &opt)
{
    mm::Phase1Config p1;
    p1.preset = mm::SurrogatePreset::Fast;
    p1.data.samples = opt.tiny ? 1200 : 8000;
    p1.train.epochs = opt.tiny ? 2 : 5;
    p1.threads = 1;
    // Fixed like the cold stage's spec; in the serving stage the run
    // seed drives arrivals, the request mix and request seeds.
    p1.seed = 2;
    p1.data.seed = 3;
    return p1;
}

bool
sameBits(double a, double b)
{
    uint64_t x = 0;
    uint64_t y = 0;
    std::memcpy(&x, &a, sizeof(x));
    std::memcpy(&y, &b, sizeof(y));
    return x == y;
}

void
checkMapping(Report &rep, const mm::CostModel &model, const mm::Mapping &m,
             double reportedNormEdp, const std::string &what)
{
    const bool member = model.space().isMember(m);
    rep.check(member, what + ": returned mapping is not a map-space member");
    if (!member)
        return;
    const double oracle = mm::referenceEvaluate(model.space(), m).edp()
                          / model.lowerBound().edp();
    rep.check(sameBits(oracle, reportedNormEdp),
              what + ": reported normalized EDP " + numberJson(reportedNormEdp)
                  + " != reference oracle " + numberJson(oracle));
}

} // namespace perfbench
