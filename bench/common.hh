/**
 * @file
 * Shared harness for the figure/table bench drivers: command-line
 * parsing (--smoke, --threads, --sampling), the standard
 * RunOptions/budget boilerplate, the SweepOptions fed to the parallel
 * sweep engine, the one route a simulator driver runs and records a
 * sweep section through (runSection, addResultCounters, bandCell),
 * the serving benches' query mix (servingTraffic), wall-clock timing,
 * and a minimal JSON emitter for machine-readable bench output
 * (BENCH_*.json).
 *
 * Runtime knobs (see README.md):
 *   WSEARCH_SIM_THREADS  sweep worker threads (default: hardware
 *                        concurrency); --threads=N overrides
 *   --smoke              sampled quick-look mode: a uniform
 *                        SamplingPlan (~1/4 of each trace simulated)
 *                        instead of the full contiguous replay;
 *                        results are ESTIMATES with 95% bands and are
 *                        banner-labelled as sampled
 *   --sampling=P         off|uniform|clustered; overrides both the
 *                        --smoke policy and a section's default
 */

#ifndef WSEARCH_BENCH_COMMON_HH
#define WSEARCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "search/corpus.hh"
#include "search/query.hh"

namespace wsearch {
namespace bench {

/** Command-line knobs shared by all drivers. */
struct Args
{
    bool smoke = false;   ///< sampled quick-look mode
    uint32_t threads = 0; ///< sweep workers; 0 = WSEARCH_SIM_THREADS
    /** Representative-window sampling policy (--sampling=); only
     *  meaningful when policySet. */
    SamplingPolicy policy = SamplingPolicy::kOff;
    bool policySet = false; ///< --sampling= was given explicitly
};

/**
 * Parse --smoke / --threads=N / --sampling=off|uniform|clustered.
 * Any other argument, a non-numeric --threads= or an unknown
 * --sampling= value prints a usage line and exits 2.
 */
Args parseArgs(int argc, char **argv);

/**
 * SweepOptions for a sweep section over @p options: threads from
 * --threads; policy from --sampling= if given, else
 * @p section_default, else kUniform under --smoke (kOff otherwise);
 * whenever the policy samples, rep = defaultRepresentativeSampling
 * over the section's largest warmup+measure budget (~96 windows, 12
 * simulated, each after a one-window warmup, so ~1/4 of the trace;
 * rows with smaller budgets simulate a larger share;
 * WSEARCH_SAMPLE_WINDOWS / WSEARCH_SAMPLE_CLUSTERS /
 * WSEARCH_SAMPLE_WARMUP / WSEARCH_SAMPLE_SEED override -- see
 * README). A kClustered section default is what lets the fig6bc/fig13
 * capacity sweeps run at full nominal working-set sizes.
 */
SweepOptions sweepOptions(const Args &args,
                          const std::vector<RunOptions> &options,
                          SamplingPolicy section_default =
                              SamplingPolicy::kOff);

/**
 * The standard driver preamble: cores + nominal record budgets
 * (warmup 0 = half the measure budget, the repo-wide default).
 */
RunOptions baseOptions(uint32_t cores, uint64_t measure_records,
                       uint64_t warmup_records = 0);

/**
 * printBanner plus the sampled-mode notice when @p args.smoke: any
 * numbers printed under a sampled banner are estimates.
 */
void banner(const Args &args, const std::string &experiment_id,
            const std::string &description);

/**
 * The serving benches' query traffic over a corpus generated from
 * @p corpus: 64Ki distinct Zipf(0.9) queries of 1-3 terms, 70%
 * conjunctive, drawn from the corpus vocabulary so every term exists
 * in the shards.
 */
QueryGenerator::Config servingTraffic(const CorpusConfig &corpus);

/** Monotonic wall clock in seconds. */
double nowSec();

/**
 * Git revision the binary is benchmarking: WSEARCH_GIT_SHA if set,
 * else GITHUB_SHA (what CI exports), else "unknown". Baked into every
 * BENCH_*.json so scripts/bench_diff.py can tell which two revisions
 * it is comparing.
 */
std::string gitSha();

/**
 * Minimal JSON object writer for BENCH_*.json artifacts. Values are
 * emitted in insertion order; nested arrays of objects supported via
 * beginArray/add/endArray.
 */
class JsonWriter
{
  public:
    void add(const std::string &key, double value);
    void add(const std::string &key, uint64_t value);
    void add(const std::string &key, const std::string &value);
    void beginArray(const std::string &key);
    void beginObject();
    void endObject();
    void endArray();

    /** Write the accumulated object to @p path; returns success. */
    bool writeFile(const std::string &path) const;

    std::string str() const;

  private:
    void comma();
    std::string out_ = "{";
    bool needComma_ = false;
};

/**
 * The uniform BENCH_*.json preamble every driver emits first:
 *   schema_version  bumped when the shared key set changes
 *   bench           @p bench_name
 *   smoke           1 when the run is the sampled/smoke quick-look
 *   smoke_sampling  policy --smoke sweeps use ("uniform"; "off" when
 *                   not smoke), so a change of the smoke sampler
 *                   re-baselines instead of reading as counter drift
 *   git_sha         gitSha()
 * Driver-specific config and measured/expected counters follow, and
 * finishStandardJson() closes the object. Keeping the frame uniform is
 * what lets bench_all.sh aggregate and bench_diff.py gate without
 * per-bench special cases.
 */
void beginStandardJson(JsonWriter &json, const std::string &bench_name,
                       bool smoke);

/**
 * Append "wall_time_sec" (nowSec() - @p t0_sec) and write the object
 * to BENCH_<bench_name>.json, echoing the path on success. Returns
 * the write status.
 */
bool finishStandardJson(JsonWriter &json,
                        const std::string &bench_name, double t0_sec);

/** One sweep section: the options it ran under and its results. */
struct Section
{
    SweepOptions sweep;
    std::vector<SystemResult> results; ///< positional to the options
};

/**
 * Run one sweep section -- every variation in @p options through
 * runWorkloadSweep under sweepOptions(@p args, @p options,
 * @p section_default) -- and record its config in @p json:
 *   <section>_measure_records, <section>_warmup_records
 *       the record budget of options.front() (a section's
 *       variations share one budget)
 * and, only when the sweep samples (SweepOptions::sampled(); under
 * --smoke an exact section samples too):
 *   <section>_sampling_policy, <section>_sample_window_records,
 *   <section>_sample_clusters, <section>_sample_seed
 * These are config keys for bench_diff.py: a deliberate change of
 * budget or sampler re-baselines instead of reading as drift.
 */
Section runSection(JsonWriter &json, const Args &args,
                   const std::string &section,
                   const WorkloadProfile &profile,
                   const PlatformConfig &platform,
                   const std::vector<RunOptions> &options,
                   SamplingPolicy section_default =
                       SamplingPolicy::kOff);

/**
 * Append the counters every simulator result row carries to the open
 * row object: instructions, l3_accesses, l3_misses, l4_accesses,
 * l4_misses, writebacks, back_invalidations, sampled_windows,
 * represented_windows, band_lo, band_hi, band_rel. Drivers write their
 * key fields before and their figure-specific values after.
 */
void addResultCounters(JsonWriter &json, const SystemResult &r);

/** The "lo..hi (+-rel%)" 95% LLC-miss band table cell of @p r. */
std::string bandCell(const SystemResult &r);

} // namespace bench
} // namespace wsearch

#endif // WSEARCH_BENCH_COMMON_HH
