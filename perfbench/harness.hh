/**
 * @file
 * Shared pieces of the wsearch benchmark: command-line arguments,
 * exact order statistics, the in-memory span tracer, the metric
 * registry every workload reports into, the simulated-counter digest,
 * and the host fingerprint. Everything here sits outside the library:
 * the workloads reach each layer only through its public functions.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/system.hh"
#include "memsim/simulator.hh"

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

/** Monotonic seconds (steady_clock). */
double nowSec();

/** Busy-wait (never sleep) until steady_clock reaches @p due_ns. */
void spinUntil(uint64_t due_ns);

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string gitSha = "unavailable";
    std::string srcSha = "unavailable";
};

/** Parse argv; prints usage and exits 2 on anything malformed. */
Args parseArgs(int argc, char **argv);

/** Deterministic 64-bit seed for one input stream of a workload. */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

// ----- order statistics ---------------------------------------------

double median(std::vector<double> v);

/** Order statistic at rank floor(q * (n - 1)) of @p v (0 if empty). */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

/**
 * A timing reported the way the benchmark reports every timing: the
 * median and the highest percentile that still has at least ten
 * samples beyond it (capped at p99), with the sample count.
 */
struct LatencySummary
{
    double p50 = 0;
    double tail = 0;
    double tailQuantile = 0; ///< e.g. 0.99; 0 (tail = max) when n < 21
    uint64_t n = 0;
};

LatencySummary summarize(std::vector<double> v);

/**
 * Latencies of one run grouped into fixed windows of wall time, so
 * each statistic is taken per window and then read at the quietest
 * quartile across windows. Contention from other tenants of a shared
 * host only ever adds time and arrives in 1-2 s bursts (vCPU steal),
 * so the quietest quarter of the windows is the steadiest view of the
 * program. A regression that slows every window, or more than three
 * quarters of them, moves it; one that stalls only some windows does
 * not, and shows in wholeRun(), which the workloads also report.
 */
class Windowed
{
  public:
    explicit Windowed(double window_sec) : windowSec_(window_sec) {}

    /** One latency @p value observed @p t_sec into the run. */
    void add(double t_sec, double value);
    void merge(const Windowed &other);

    /**
     * p50 and tail per window, each read at the lower quartile across
     * windows; n counts every sample. Windows with under half the
     * fullest window's samples (a phase's ragged end) are left out.
     */
    LatencySummary summary() const;

    /** Every sample of the run, windows ignored. */
    LatencySummary wholeRun() const;

    /** Samples per second per window, read at the upper quartile. */
    double rate() const;

  private:
    std::vector<const std::vector<double> *> fullWindows() const;

    double windowSec_;
    std::vector<std::vector<double>> windows_;
};

// ----- tracing ------------------------------------------------------

/** One recorded span: a timed call into a layer. */
struct Span
{
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t tag = 0; ///< small per-span attribute (e.g. cache hit)
};

/**
 * In-memory span store, the single source of the per-layer timings.
 * Off by default: a ScopedSpan then costs one relaxed load.
 */
class Tracer
{
  public:
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on) { enabled_.store(on); }

    void record(const Span &s);

    /** Durations in ns of the spans named @p name, in record order. */
    std::vector<double> durationsNs(const char *name) const;
    /** The same, only spans tagged @p tag. */
    std::vector<double> durationsNs(const char *name, int64_t tag) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

Tracer &tracer();

/** RAII span around one call into a layer; no-op while tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, int64_t tag = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setTag(int64_t tag) { span_.tag = tag; }

  private:
    Span span_;
    bool active_ = false;
};

// ----- metrics ------------------------------------------------------

struct MetricDecl
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics every workload reports with --trace 0. */
const std::vector<MetricDecl> &endToEndMetrics();

/**
 * Per-layer metrics every workload reports with --trace 1. A layer a
 * workload does not exercise reports 0.
 */
const std::vector<MetricDecl> &perLayerMetrics();

/** What one workload run produced. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, double> metrics;
    /** Workload-specific report fields, each already JSON-encoded. */
    std::map<std::string, std::string> report;

    void set(const std::string &name, double v) { metrics[name] = v; }
    void note(const std::string &key, const std::string &v);
    void note(const std::string &key, double v);
    void noteLatency(const std::string &key, const LatencySummary &s);

    /** Count one check; a false @p ok is a failure. */
    void check(bool ok, const char *what);
};

// ----- correctness --------------------------------------------------

/** FNV-1a style digest over every counter of a result. */
uint64_t digest(const wsearch::SimResult &r);
uint64_t digest(const wsearch::SystemResult &r);
uint64_t digestCombine(uint64_t h, uint64_t v);
std::string hex64(uint64_t v);

// ----- host ---------------------------------------------------------

/** Host fingerprint: nproc, CPU model, codec SIMD path, build. */
std::map<std::string, std::string> hostFingerprint(const Args &args);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** JSON-escape @p s into a quoted string. */
std::string jsonString(const std::string &s);

/** Shortest round-trip decimal for @p v (non-finite values -> 0). */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
