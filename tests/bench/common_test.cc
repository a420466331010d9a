/**
 * Tests for the bench driver harness (bench/common.hh): argument
 * parsing, the SweepOptions a section runs under, the section runner's
 * config keys and the shared result-row counters bench_diff.py gates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace wsearch {
namespace {

/**
 * Minimal strict JSON reader: validates one document and records the
 * keys of every object by nesting depth (the top-level object's keys
 * at depth 1, a rows[] element's at depth 3). Enough to prove the
 * writer's output parses; bare nan/inf numbers are rejected.
 */
class JsonKeys
{
  public:
    explicit JsonKeys(std::string text) : s_(std::move(text)) {}

    bool
    parse()
    {
        ws();
        if (!value(0))
            return false;
        ws();
        return pos_ == s_.size();
    }

    std::map<int, std::vector<std::string>> keys;

  private:
    void
    ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        ws();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    string(std::string *out)
    {
        if (!eat('"'))
            return false;
        const size_t begin = pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        if (out)
            *out = s_.substr(begin, pos_ - begin);
        ++pos_;
        return true;
    }

    bool
    digits()
    {
        const size_t begin = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        return pos_ > begin;
    }

    bool
    number()
    {
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        if (!digits())
            return false;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return false;
        }
        return true;
    }

    bool
    value(int depth)
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '"')
            return string(nullptr);
        if (c == '{') {
            ++pos_;
            if (eat('}'))
                return true;
            do {
                std::string key;
                if (!string(&key) || !eat(':') || !value(depth + 1))
                    return false;
                keys[depth + 1].push_back(key);
            } while (eat(','));
            return eat('}');
        }
        if (c == '[') {
            ++pos_;
            if (eat(']'))
                return true;
            do {
                if (!value(depth + 1))
                    return false;
            } while (eat(','));
            return eat(']');
        }
        return number();
    }

    std::string s_;
    size_t pos_ = 0;
};

bool
contains(const std::vector<std::string> &v, const std::string &key)
{
    return std::find(v.begin(), v.end(), key) != v.end();
}

std::vector<RunOptions>
smallOptions()
{
    std::vector<RunOptions> options;
    for (const uint64_t l3 : {256 * KiB, 1 * MiB}) {
        RunOptions opt = bench::baseOptions(2, 40'000, 20'000);
        opt.l3Bytes = l3;
        options.push_back(opt);
    }
    return options;
}

TEST(BenchCommon, SweepOptionsPrecedence)
{
    const std::vector<RunOptions> options = smallOptions();
    bench::Args args;
    EXPECT_EQ(bench::sweepOptions(args, options).policy,
              SamplingPolicy::kOff);

    // --smoke samples an exact section uniformly...
    args.smoke = true;
    EXPECT_EQ(bench::sweepOptions(args, options).policy,
              SamplingPolicy::kUniform);
    // ...but a section default beats --smoke...
    EXPECT_EQ(bench::sweepOptions(args, options,
                                  SamplingPolicy::kClustered).policy,
              SamplingPolicy::kClustered);
    // ...and an explicit --sampling= beats both.
    args.policySet = true;
    args.policy = SamplingPolicy::kOff;
    EXPECT_EQ(bench::sweepOptions(args, options,
                                  SamplingPolicy::kClustered).policy,
              SamplingPolicy::kOff);
    args.policy = SamplingPolicy::kUniform;
    EXPECT_EQ(bench::sweepOptions(args, options,
                                  SamplingPolicy::kClustered).policy,
              SamplingPolicy::kUniform);

    args.threads = 3;
    EXPECT_EQ(bench::sweepOptions(args, options).threads, 3u);
}

TEST(BenchCommon, RepComesFromLargestBudget)
{
    std::vector<RunOptions> options = smallOptions();
    options[1].measureRecords = 120'000;
    options[1].warmupRecords = 60'000;
    bench::Args args;
    args.smoke = true;
    const SweepOptions sampled = bench::sweepOptions(args, options);
    const RepresentativeSampling want =
        defaultRepresentativeSampling(recordBudget(options[1]).total());
    EXPECT_TRUE(sampled.rep.enabled());
    EXPECT_EQ(sampled.rep.windowRecords, want.windowRecords);
    EXPECT_EQ(sampled.rep.warmupRecords, want.warmupRecords);
    EXPECT_EQ(sampled.rep.sampleWindows, want.sampleWindows);

    args.smoke = false;
    EXPECT_FALSE(bench::sweepOptions(args, options).rep.enabled());
}

TEST(BenchCommon, RunSectionWritesPrefixedKeys)
{
    WorkloadProfile prof = WorkloadProfile::s1Leaf();
    prof.code.footprintBytes = 128 * KiB;
    prof.heapWorkingSetBytes = 2 * MiB;
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const std::vector<RunOptions> options = smallOptions();
    const RecordBudget budget = recordBudget(options[0]);

    // Exact section: the budget keys only.
    bench::Args args;
    bench::JsonWriter exact;
    const bench::Section e =
        bench::runSection(exact, args, "sec", prof, plt1, options);
    ASSERT_EQ(e.results.size(), options.size());
    EXPECT_EQ(e.results[0].sampledWindows, 0u);
    JsonKeys ek(exact.str());
    ASSERT_TRUE(ek.parse()) << exact.str();
    EXPECT_EQ(ek.keys[1], (std::vector<std::string>{
                              "sec_measure_records",
                              "sec_warmup_records"}));
    EXPECT_NE(exact.str().find("\"sec_measure_records\":" +
                               std::to_string(budget.measure)),
              std::string::npos);

    // Under --smoke the same section samples and says how.
    args.smoke = true;
    bench::JsonWriter sampled;
    const bench::Section s =
        bench::runSection(sampled, args, "sec", prof, plt1, options);
    EXPECT_EQ(s.sweep.policy, SamplingPolicy::kUniform);
    EXPECT_GT(s.results[0].sampledWindows, 0u);
    JsonKeys sk(sampled.str());
    ASSERT_TRUE(sk.parse()) << sampled.str();
    EXPECT_EQ(sk.keys[1], (std::vector<std::string>{
                              "sec_measure_records",
                              "sec_warmup_records",
                              "sec_sampling_policy",
                              "sec_sample_window_records",
                              "sec_sample_clusters",
                              "sec_sample_seed"}));
}

TEST(BenchCommon, ResultRowParsesWithEveryGatedCounter)
{
    SystemResult exact;
    exact.instructions = 1000;
    SystemResult sampled = exact;
    sampled.l3.accesses[0] = 50;
    sampled.l3.misses[0] = 20;
    sampled.sampledWindows = 12;
    sampled.representedWindows = 96;
    sampled.l3MissVar = 16.0;

    bench::JsonWriter json;
    json.beginArray("rows");
    for (const SystemResult *r : {&exact, &sampled}) {
        json.beginObject();
        json.add("section", std::string("s"));
        bench::addResultCounters(json, *r);
        json.endObject();
    }
    json.endArray();
    JsonKeys k(json.str());
    ASSERT_TRUE(k.parse()) << json.str();
    // The union of the row counters bench_diff.py gates for ablation,
    // replacement, fig6bc, fig8, fig9 and fig13.
    for (const char *key :
         {"instructions", "l3_accesses", "l3_misses", "l4_accesses",
          "l4_misses", "writebacks", "back_invalidations",
          "sampled_windows", "represented_windows", "band_lo",
          "band_hi", "band_rel"})
        EXPECT_TRUE(contains(k.keys[3], key)) << key;
    EXPECT_EQ(bench::bandCell(exact), "0..0 (+-0.0%)");
}

bench::Args
parse(std::vector<std::string> words)
{
    std::vector<char *> argv;
    for (std::string &w : words)
        argv.push_back(w.data());
    return bench::parseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCommon, ParseArgsAcceptsKnownFlags)
{
    const bench::Args a =
        parse({"bench", "--smoke", "--threads=3", "--sampling=clustered"});
    EXPECT_TRUE(a.smoke);
    EXPECT_EQ(a.threads, 3u);
    EXPECT_TRUE(a.policySet);
    EXPECT_EQ(a.policy, SamplingPolicy::kClustered);
}

TEST(BenchCommon, ParseArgsRejectsBadArguments)
{
    for (const char *bad : {"--smoek", "--sampling=bogus", "--threads=x",
                            "--threads=4294967296", "smoke"})
        EXPECT_EXIT(parse({"bench", bad}), testing::ExitedWithCode(2),
                    "usage: bench")
            << bad;
}

} // namespace
} // namespace wsearch
