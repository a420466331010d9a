#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace wsearch {
namespace bench {

namespace {

[[noreturn]] void
usage(const char *prog, const char *bad)
{
    std::fprintf(stderr,
                 "%s: bad argument '%s'\n"
                 "usage: %s [--smoke] [--threads=N] "
                 "[--sampling=off|uniform|clustered]\n",
                 prog, bad, prog);
    std::exit(2);
}

} // namespace

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--smoke") == 0) {
            args.smoke = true;
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            uint64_t n = 0;
            if (!parseU64(a + 10, n) ||
                n > std::numeric_limits<uint32_t>::max())
                usage(argv[0], a);
            args.threads = static_cast<uint32_t>(n);
        } else if (std::strncmp(a, "--sampling=", 11) == 0) {
            const char *p = a + 11;
            if (std::strcmp(p, "uniform") == 0)
                args.policy = SamplingPolicy::kUniform;
            else if (std::strcmp(p, "clustered") == 0)
                args.policy = SamplingPolicy::kClustered;
            else if (std::strcmp(p, "off") == 0)
                args.policy = SamplingPolicy::kOff;
            else
                usage(argv[0], a);
            args.policySet = true;
        } else {
            usage(argv[0], a);
        }
    }
    return args;
}

SweepOptions
sweepOptions(const Args &args, const std::vector<RunOptions> &options,
             SamplingPolicy section_default)
{
    SweepOptions opt;
    opt.threads = args.threads;
    if (args.policySet)
        opt.policy = args.policy;
    else if (section_default != SamplingPolicy::kOff)
        opt.policy = section_default;
    else if (args.smoke)
        opt.policy = SamplingPolicy::kUniform;
    if (opt.policy == SamplingPolicy::kOff)
        return opt;
    uint64_t total = 0;
    for (const RunOptions &o : options)
        total = std::max(total, recordBudget(o).total());
    opt.rep = defaultRepresentativeSampling(total);
    return opt;
}

RunOptions
baseOptions(uint32_t cores, uint64_t measure_records,
            uint64_t warmup_records)
{
    RunOptions opt;
    opt.cores = cores;
    opt.measureRecords = measure_records;
    opt.warmupRecords = warmup_records;
    return opt;
}

void
banner(const Args &args, const std::string &experiment_id,
       const std::string &description)
{
    printBanner(experiment_id, description);
    if (args.smoke)
        std::printf("(--smoke: SAMPLED -- uniform representative "
                    "windows, ~1/4 of each trace simulated; all "
                    "numbers are estimates)\n\n");
}

QueryGenerator::Config
servingTraffic(const CorpusConfig &corpus)
{
    QueryGenerator::Config qc;
    qc.vocabSize = corpus.vocabSize;
    qc.distinctQueries = 1u << 16;
    qc.popularityTheta = 0.9;
    qc.maxTerms = 3;
    qc.conjunctiveFrac = 0.7;
    return qc;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
gitSha()
{
    for (const char *var : {"WSEARCH_GIT_SHA", "GITHUB_SHA"}) {
        const char *v = std::getenv(var);
        if (v && *v)
            return v;
    }
    return "unknown";
}

void
beginStandardJson(JsonWriter &json, const std::string &bench_name,
                  bool smoke)
{
    json.add("schema_version", static_cast<uint64_t>(1));
    json.add("bench", bench_name);
    json.add("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
    json.add("smoke_sampling",
             std::string(samplingPolicyName(
                 smoke ? SamplingPolicy::kUniform : SamplingPolicy::kOff)));
    json.add("git_sha", gitSha());
}

bool
finishStandardJson(JsonWriter &json, const std::string &bench_name,
                   double t0_sec)
{
    json.add("wall_time_sec", nowSec() - t0_sec);
    const std::string out = "BENCH_" + bench_name + ".json";
    const bool ok = json.writeFile(out);
    if (ok)
        std::printf("Results written to %s\n", out.c_str());
    else
        std::fprintf(stderr, "bench: failed to write %s\n",
                     out.c_str());
    return ok;
}

Section
runSection(JsonWriter &json, const Args &args, const std::string &section,
           const WorkloadProfile &profile, const PlatformConfig &platform,
           const std::vector<RunOptions> &options,
           SamplingPolicy section_default)
{
    Section s;
    s.sweep = sweepOptions(args, options, section_default);
    const RecordBudget budget = recordBudget(options.front());
    json.add(section + "_measure_records", budget.measure);
    json.add(section + "_warmup_records", budget.warmup);
    if (s.sweep.sampled()) {
        json.add(section + "_sampling_policy",
                 std::string(samplingPolicyName(s.sweep.policy)));
        json.add(section + "_sample_window_records",
                 s.sweep.rep.windowRecords);
        json.add(section + "_sample_clusters",
                 static_cast<uint64_t>(s.sweep.rep.sampleWindows));
        json.add(section + "_sample_seed", sampleSeed(s.sweep.rep.seed));
    }
    s.results = runWorkloadSweep(profile, platform, options, s.sweep);
    return s;
}

void
addResultCounters(JsonWriter &json, const SystemResult &r)
{
    json.add("instructions", r.instructions);
    json.add("l3_accesses", r.l3.totalAccesses());
    json.add("l3_misses", r.l3.totalMisses());
    json.add("l4_accesses", r.l4.totalAccesses());
    json.add("l4_misses", r.l4.totalMisses());
    json.add("writebacks", r.writebacks);
    json.add("back_invalidations", r.backInvalidations);
    json.add("sampled_windows", r.sampledWindows);
    json.add("represented_windows", r.representedWindows);
    json.add("band_lo", r.l3MissBandLo());
    json.add("band_hi", r.l3MissBandHi());
    json.add("band_rel", r.bandRelHalfWidth());
}

std::string
bandCell(const SystemResult &r)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3g..%.3g (+-%.1f%%)",
                  r.l3MissBandLo(), r.l3MissBandHi(),
                  100.0 * r.bandRelHalfWidth());
    return buf;
}

void
JsonWriter::comma()
{
    if (needComma_)
        out_ += ",";
    needComma_ = true;
}

void
JsonWriter::add(const std::string &key, double value)
{
    comma();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    out_ += "\"" + key + "\":" + buf;
}

void
JsonWriter::add(const std::string &key, uint64_t value)
{
    comma();
    out_ += "\"" + key + "\":" + std::to_string(value);
}

void
JsonWriter::add(const std::string &key, const std::string &value)
{
    comma();
    out_ += "\"" + key + "\":\"" + value + "\"";
}

void
JsonWriter::beginArray(const std::string &key)
{
    comma();
    out_ += "\"" + key + "\":[";
    needComma_ = false;
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += "{";
    needComma_ = false;
}

void
JsonWriter::endObject()
{
    out_ += "}";
    needComma_ = true;
}

void
JsonWriter::endArray()
{
    out_ += "]";
    needComma_ = true;
}

bool
JsonWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string body = str();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok;
}

std::string
JsonWriter::str() const
{
    return out_ + "}\n";
}

} // namespace bench
} // namespace wsearch
