#include "harness.hh"

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "search/block_codec.hh"
#include "util/rng.hh"

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
nowSec()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

void
spinUntil(uint64_t due_ns)
{
    // Spin, never sleep: a sleeping thread's CPU halts, and on a
    // virtual machine waking it waits for the host's scheduler, which
    // made sends up to milliseconds late.
    while (nowNs() < due_ns)
        __builtin_ia32_pause(); // spare the hyperthread sibling
}

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--git-sha X] "
                 "[--src-sha X]\n",
                 why);
    std::exit(2);
}

uint64_t
parseU64(const char *s, const char *what)
{
    char *end = nullptr;
    if (!s || !*s || *s == '-')
        usage(what);
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        usage(what);
    return v;
}

} // namespace

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = parseU64(v, "bad --seed");
            have_seed = true;
        } else if (k == "--seconds") {
            const uint64_t s = parseU64(v, "bad --seconds");
            if (s < 1 || s > 120)
                usage("--seconds must be in [1, 120]");
            a.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (k == "--trace") {
            const uint64_t t = parseU64(v, "bad --trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            a.trace = t == 1;
            have_trace = true;
        } else if (k == "--git-sha") {
            a.gitSha = v;
        } else if (k == "--src-sha") {
            a.srcSha = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds ||
        !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    uint64_t sm = seed * 0x9e3779b97f4a7c15ull + stream;
    uint64_t v = wsearch::splitmix64(sm);
    return v ? v : 1; // 0 means "library default" to several APIs
}

// ----- order statistics ---------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

LatencySummary
summarize(std::vector<double> v)
{
    LatencySummary s;
    s.n = v.size();
    if (v.empty())
        return s;
    s.p50 = median(v);
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n < 21) {
        // No sample above the median has ten beyond it: report the
        // maximum, flagged by a zero quantile.
        s.tail = v.back();
        return s;
    }
    // Highest rank with >= 10 samples above it, capped at p99.
    size_t idx = n - 11;
    const size_t p99 = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(n))) - 1;
    if (idx > p99)
        idx = p99;
    s.tail = v[idx];
    s.tailQuantile = static_cast<double>(idx + 1) /
        static_cast<double>(n);
    return s;
}

void
Windowed::add(double t_sec, double value)
{
    const size_t w = static_cast<size_t>(std::max(0.0, t_sec) / windowSec_);
    if (windows_.size() <= w)
        windows_.resize(w + 1);
    windows_[w].push_back(value);
}

void
Windowed::merge(const Windowed &other)
{
    if (windows_.size() < other.windows_.size())
        windows_.resize(other.windows_.size());
    for (size_t w = 0; w < other.windows_.size(); ++w)
        windows_[w].insert(windows_[w].end(), other.windows_[w].begin(),
                           other.windows_[w].end());
}

std::vector<const std::vector<double> *>
Windowed::fullWindows() const
{
    size_t fullest = 0;
    for (const auto &w : windows_)
        fullest = std::max(fullest, w.size());
    std::vector<const std::vector<double> *> out;
    for (const auto &w : windows_)
        if (!w.empty() && 2 * w.size() >= fullest)
            out.push_back(&w);
    return out;
}

LatencySummary
Windowed::summary() const
{
    LatencySummary s;
    std::vector<double> p50s, tails;
    double tail_q = 1.0;
    for (const std::vector<double> *w : fullWindows()) {
        const LatencySummary ws = summarize(*w);
        p50s.push_back(ws.p50);
        tails.push_back(ws.tail);
        tail_q = std::min(tail_q, ws.tailQuantile);
    }
    for (const auto &w : windows_)
        s.n += w.size();
    if (p50s.empty())
        return s;
    s.p50 = quantile(p50s, 0.25);
    s.tail = quantile(tails, 0.25);
    s.tailQuantile = tail_q;
    return s;
}

LatencySummary
Windowed::wholeRun() const
{
    std::vector<double> all;
    for (const auto &w : windows_)
        all.insert(all.end(), w.begin(), w.end());
    return summarize(std::move(all));
}

double
Windowed::rate() const
{
    std::vector<double> rates;
    for (const std::vector<double> *w : fullWindows())
        rates.push_back(static_cast<double>(w->size()) / windowSec_);
    return quantile(rates, 0.75);
}

// ----- tracing ------------------------------------------------------

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

void
Tracer::record(const Span &s)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
}

std::vector<double>
Tracer::durationsNs(const char *name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs));
    return out;
}

std::vector<double>
Tracer::durationsNs(const char *name, int64_t tag) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.tag == tag && std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs));
    return out;
}

ScopedSpan::ScopedSpan(const char *name, int64_t tag)
{
    if (!tracer().enabled())
        return;
    active_ = true;
    span_.name = name;
    span_.tag = tag;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.endNs = nowNs();
    tracer().record(span_);
}

// ----- metrics ------------------------------------------------------

const std::vector<MetricDecl> &
endToEndMetrics()
{
    static const std::vector<MetricDecl> m = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"throughput_per_s", "1/s"},
        {"p50_us", "us"},
        {"tail_us", "us"},
    };
    return m;
}

const std::vector<MetricDecl> &
perLayerMetrics()
{
    static const std::vector<MetricDecl> m = {
        {"trace.gen_mrec_per_s", "Mrec/s"},
        {"trace.buffer_mb", "MB"},
        {"memsim.replay_ns_per_rec", "ns"},
        {"memsim.l1i_lookups_per_rec", "count"},
        {"memsim.l1i_hit_ratio", "ratio"},
        {"memsim.l1d_hit_ratio", "ratio"},
        {"memsim.sweep_efficiency", "ratio"},
        {"memsim.plan_s", "s"},
        {"memsim.simulated_frac", "ratio"},
        {"memsim.sample_rel_err", "ratio"},
        {"memsim.band_covers", "count"},
        {"memsim.coh_events_per_krec", "count"},
        {"memsim.l4_hit_ratio", "ratio"},
        {"cpu.step_ns_per_rec", "ns"},
        {"search.exec_us_p50", "us"},
        {"search.exec_us_p99", "us"},
        {"search.decoded_per_query", "count"},
        {"search.scored_per_decoded", "ratio"},
        {"search.blocks_skipped_ratio", "ratio"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.cache_hit_us", "us"},
        {"serve.submit_us", "us"},
        {"serve.queue_wait_us_mean", "us"},
        {"serve.worker_busy_frac", "ratio"},
        {"serve.gen_late_ms", "ms"},
        {"serve.shed_frac", "ratio"},
        {"serve.cluster_gather_us", "us"},
        {"serve.cluster_rollout_ms", "ms"},
        {"serve.cluster_hedges", "count"},
        {"serve.cluster_retries", "count"},
        {"serve.cluster_degraded", "count"},
        {"live.add_us", "us"},
        {"live.commit_ms", "ms"},
        {"live.merge_ms", "ms"},
        {"live.segments_mean", "count"},
        {"live.visible_lag_ms", "ms"},
        {"tracing.overhead_frac", "ratio"},
    };
    return m;
}

void
Outcome::note(const std::string &key, const std::string &v)
{
    report[key] = jsonString(v);
}

void
Outcome::note(const std::string &key, double v)
{
    report[key] = jsonNumber(v);
}

void
Outcome::noteLatency(const std::string &key, const LatencySummary &s)
{
    report[key] = "{\"p50\": " + jsonNumber(s.p50) + ", \"tail\": " +
        jsonNumber(s.tail) + ", \"tail_quantile\": " +
        jsonNumber(s.tailQuantile) + ", \"n\": " + std::to_string(s.n) +
        "}";
}

void
Outcome::check(bool ok, const char *what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::printf("CHECK FAILED: %s\n", what);
    }
}

// ----- correctness --------------------------------------------------

uint64_t
digestCombine(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t
bitsOf(double d)
{
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

uint64_t
digestLevel(uint64_t h, const wsearch::CacheLevelStats &s)
{
    for (uint32_t k = 0; k < wsearch::kNumAccessKinds; ++k) {
        h = digestCombine(h, s.accesses[k]);
        h = digestCombine(h, s.misses[k]);
    }
    h = digestCombine(h, s.prefetchIssued);
    return digestCombine(h, s.prefetchUseful);
}

template <typename R>
uint64_t
digestCommon(const R &r)
{
    uint64_t h = kFnvBasis;
    h = digestCombine(h, r.instructions);
    for (const wsearch::CacheLevelStats *s :
         {&r.l1i, &r.l1d, &r.l2, &r.l3, &r.l4})
        h = digestLevel(h, *s);
    for (uint64_t v : {r.l3Evictions, r.writebacks, r.backInvalidations,
                       r.cohUpgrades, r.cohInvalidations,
                       r.cohDirtyWritebacks, r.sampledWindows,
                       r.representedWindows})
        h = digestCombine(h, v);
    return digestCombine(h, bitsOf(r.l3MissVar));
}

} // namespace

uint64_t
digest(const wsearch::SimResult &r)
{
    return digestCommon(r);
}

uint64_t
digest(const wsearch::SystemResult &r)
{
    uint64_t h = digestCommon(r);
    for (uint64_t v : {r.branches, r.mispredicts, r.dtlbAccesses,
                       r.dtlbWalks, r.itlbWalks})
        h = digestCombine(h, v);
    for (double d : {r.topdown.retiring, r.topdown.badSpeculation,
                     r.topdown.frontendLatency,
                     r.topdown.frontendBandwidth,
                     r.topdown.backendMemory, r.topdown.backendCore,
                     r.ipcPerThread, r.amatL3Ns})
        h = digestCombine(h, bitsOf(d));
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ----- host ---------------------------------------------------------

namespace {

std::string
cpuModel()
{
    unsigned int regs[12] = {};
    unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext < 0x80000004u)
        return "unknown";
    for (unsigned int i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    const size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

} // namespace

std::map<std::string, std::string>
hostFingerprint(const Args &args)
{
    std::map<std::string, std::string> f;
    f["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    f["cpu_model"] = cpuModel();
    f["codec_simd"] = wsearch::packed_simd::levelName(
        wsearch::packed_simd::activeLevel());
    f["build_type"] = PERFBENCH_BUILD_TYPE;
    f["compiler"] = PERFBENCH_COMPILER;
    f["git_sha"] = args.gitSha;
    f["src_sha256"] = args.srcSha;
    return f;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
