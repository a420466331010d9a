#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>

#include "memsim/sweep.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

constexpr uint64_t kRecords = 120'000;
constexpr uint32_t kTraceThreads = 4;

std::shared_ptr<const BufferedTrace>
makeTrace(uint64_t records = kRecords,
          size_t chunk = BufferedTrace::kDefaultChunkRecords)
{
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kTraceThreads);
    return BufferedTrace::materialize(src, records, chunk);
}

std::vector<HierarchySpec>
sweepConfigs()
{
    std::vector<HierarchySpec> configs;
    for (const uint64_t l3 : {1 * MiB, 4 * MiB, 16 * MiB}) {
        HierarchySpec h;
        h.numCores = 4;
        h.llc.cache.sizeBytes = l3;
        h.llc.cache.ways = 16;
        configs.push_back(h);
    }
    {
        HierarchySpec h;
        h.numCores = 4;
        h.l4 = cache_gen_victim(8 * MiB, 64);
        configs.push_back(h);
    }
    {
        HierarchySpec h;
        h.numCores = 2;
        h.smtWays = 2;
        h.llc.inclusion = InclusionMode::Inclusive;
        configs.push_back(h);
    }
    return configs;
}

void
expectSimEq(const SimResult &a, const SimResult &b, const char *what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    const CacheLevelStats *as[] = {&a.l1i, &a.l1d, &a.l2, &a.l3, &a.l4};
    const CacheLevelStats *bs[] = {&b.l1i, &b.l1d, &b.l2, &b.l3, &b.l4};
    for (int lvl = 0; lvl < 5; ++lvl) {
        for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
            ASSERT_EQ(as[lvl]->accesses[k], bs[lvl]->accesses[k])
                << what << " level " << lvl << " kind " << k;
            ASSERT_EQ(as[lvl]->misses[k], bs[lvl]->misses[k])
                << what << " level " << lvl << " kind " << k;
        }
        EXPECT_EQ(as[lvl]->prefetchIssued, bs[lvl]->prefetchIssued)
            << what;
        EXPECT_EQ(as[lvl]->prefetchUseful, bs[lvl]->prefetchUseful)
            << what;
    }
    EXPECT_EQ(a.l3Evictions, b.l3Evictions) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.backInvalidations, b.backInvalidations) << what;
    EXPECT_EQ(a.cohUpgrades, b.cohUpgrades) << what;
    EXPECT_EQ(a.cohInvalidations, b.cohInvalidations) << what;
    EXPECT_EQ(a.cohDirtyWritebacks, b.cohDirtyWritebacks) << what;
}

/** Serial oracle: fresh source, classic virtual-dispatch runTrace. */
SimResult
serialOracle(const HierarchySpec &cfg, uint64_t warmup,
             uint64_t measure)
{
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kTraceThreads);
    CacheHierarchy hier(cfg);
    return runTrace(src, hier, warmup, measure);
}

TEST(SweepEngine, ParallelSweepBitIdenticalToSerialRunTrace)
{
    const auto trace = makeTrace();
    const std::vector<HierarchySpec> configs = sweepConfigs();
    const uint64_t warmup = 40'000, measure = 80'000;

    std::vector<SimResult> oracle;
    for (const HierarchySpec &cfg : configs)
        oracle.push_back(serialOracle(cfg, warmup, measure));

    for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        SweepOptions opt;
        opt.threads = threads;
        const std::vector<SimResult> got =
            sweepHierarchies(*trace, configs, warmup, measure, opt);
        ASSERT_EQ(got.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " config=" + std::to_string(i));
            expectSimEq(got[i], oracle[i], "sweep vs serial");
            EXPECT_EQ(got[i].sampledWindows, 0u);
        }
    }
}

TEST(SweepEngine, ChunkBoundaryStraddlingSplitsAreExact)
{
    // Tiny chunks so warmup/measure boundaries land mid-chunk, on a
    // chunk edge, and straddle several chunks.
    const auto trace = makeTrace(10'000, 256);
    ASSERT_GT(trace->numChunks(), 30u);
    HierarchySpec cfg;
    cfg.numCores = 4;
    cfg.llc.cache.sizeBytes = 1 * MiB;

    const uint64_t splits[][2] = {
        {0, 10'000},   // no warmup
        {256, 9'744},  // warmup == one chunk exactly
        {255, 513},    // one-off-the-edge warmup, straddling measure
        {1'000, 3'000}, // mid-chunk both
        {9'999, 1},    // measure is the final record
        {512, 9'488},  // edge-aligned warmup, tail measure
    };
    for (const auto &s : splits) {
        CacheHierarchy chunked(cfg);
        const SimResult got =
            runTrace(*trace, chunked, s[0], s[1]);
        const SimResult want = serialOracle(cfg, s[0], s[1]);
        SCOPED_TRACE("warmup=" + std::to_string(s[0]) +
                     " measure=" + std::to_string(s[1]));
        expectSimEq(got, want, "chunked vs serial");
    }
}

TEST(SweepEngine, ChunkGranularityDoesNotChangeResults)
{
    HierarchySpec cfg;
    cfg.numCores = 4;
    const SimResult want = serialOracle(cfg, 7'000, 13'000);
    for (const size_t chunk : {64u, 1'000u, 8'192u, 1u << 16}) {
        const auto trace = makeTrace(20'000, chunk);
        CacheHierarchy hier(cfg);
        const SimResult got = runTrace(*trace, hier, 7'000, 13'000);
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        expectSimEq(got, want, "chunk granularity");
    }
}

// ----- two-stage sweep: differential test against per-config replay --

constexpr ReplPolicy kPolicies[] = {ReplPolicy::LRU, ReplPolicy::Random,
                                    ReplPolicy::SRRIP, ReplPolicy::DRRIP};

/** A random private part: cores, SMT, L1/L2, prefetchers, coherence. */
HierarchySpec
randomPrivate(Rng &rng)
{
    HierarchySpec h;
    h.numCores = 1u << rng.nextRange(4); // 1..8 cores
    h.smtWays = rng.nextBool(0.3) ? 2 : 1;
    h.l1i = cache_gen_l1((4 + 4 * rng.nextRange(2)) * KiB, 64, 4);
    h.l1d = cache_gen_l1((4 + 4 * rng.nextRange(2)) * KiB, 64, 4,
                         kPolicies[rng.nextRange(4)]);
    h.l2 = cache_gen_l2((16 + 16 * rng.nextRange(2)) * KiB, 64, 8,
                        kPolicies[rng.nextRange(4)]);
    if (rng.nextBool(0.3))
        h.l2InstrPartitionWays = 1 + static_cast<uint32_t>(rng.nextRange(6));
    h.prefetch.l1Stride = rng.nextBool(0.5);
    h.prefetch.l1NextLine = rng.nextBool(0.5);
    h.prefetch.l2Adjacent = rng.nextBool(0.5);
    h.prefetch.l2Stream = rng.nextBool(0.5);
    const uint64_t coh = rng.nextRange(4);
    h.coherence = coh == 1 ? CoherenceProtocol::MSI
        : coh == 2         ? CoherenceProtocol::MESI
                           : CoherenceProtocol::None;
    return h;
}

/** @p priv with a random LLC/L4: the part a two-stage sweep varies. */
HierarchySpec
randomShared(Rng &rng, HierarchySpec h)
{
    const uint64_t kind = rng.nextRange(10);
    if (kind == 0) {
        h.hasLlc = false;
        return h;
    }
    const InclusionMode incl = kind == 1 ? InclusionMode::Inclusive
        : kind < 5                       ? InclusionMode::Exclusive
                                         : InclusionMode::NINE;
    const uint32_t ways = 4u << rng.nextRange(3); // 4..16
    const uint32_t slices = rng.nextBool(0.3) ? 4 : 1;
    const uint32_t part =
        rng.nextBool(0.2) ? 1 + static_cast<uint32_t>(rng.nextRange(ways - 1))
                          : 0;
    h.llc = cache_gen_llc((64 << rng.nextRange(4)) * KiB, 64, ways,
                          kPolicies[rng.nextRange(4)], incl, slices, part);
    const uint64_t l4 = rng.nextRange(5);
    if (l4 == 1)
        h.l4 = cache_gen_victim(1 * MiB, 64); // the paper's victim L4
    else if (l4 == 2)
        h.l4 = cache_gen_victim(1 * MiB, 64, false, false); // fill-on-miss
    else if (l4 == 3)
        h.l4 = cache_gen_victim(512 * KiB, 64, true); // fully associative
    return h;
}

/**
 * A fixed-seed random spec set: three private parts, each behind four
 * random LLC/L4 choices, plus one spec of each shared-level form a
 * draw might miss, shuffled. The private parts are pinned where a
 * draw might miss a step-1 case: every prefetcher on; a coherence
 * directory (step 1 in one part); eight cores without coherence
 * (step 1 split by core).
 */
std::vector<HierarchySpec>
randomSpecSet(uint64_t seed)
{
    Rng rng(seed);
    HierarchySpec privs[3] = {randomPrivate(rng), randomPrivate(rng),
                              randomPrivate(rng)};
    privs[0].prefetch = PrefetchConfig::allOn();
    privs[1].numCores = std::max(privs[1].numCores, 2u);
    privs[1].coherence = rng.nextBool(0.5) ? CoherenceProtocol::MSI
                                           : CoherenceProtocol::MESI;
    privs[2].numCores = 8;
    privs[2].coherence = CoherenceProtocol::None;

    std::vector<HierarchySpec> specs;
    for (const HierarchySpec &priv : privs)
        for (int k = 0; k < 4; ++k)
            specs.push_back(randomShared(rng, priv));

    HierarchySpec h = privs[0];
    h.llc = cache_gen_llc(128 * KiB, 64, 8, ReplPolicy::DRRIP,
                          InclusionMode::Exclusive, 2);
    h.l4 = cache_gen_victim(1 * MiB, 64);
    specs.push_back(h);
    h = privs[1];
    h.llc = cache_gen_llc_inc(256 * KiB, 64, 8);
    specs.push_back(h);
    h = privs[2];
    h.hasLlc = false;
    specs.push_back(h);
    h = privs[0];
    h.llc = cache_gen_llc(256 * KiB, 64, 16, ReplPolicy::SRRIP,
                          InclusionMode::NINE, 1, 6);
    h.l4 = cache_gen_victim(512 * KiB, 64, true);
    specs.push_back(h);
    h = privs[2];
    h.llc = cache_gen_llc(128 * KiB, 64, 8, ReplPolicy::Random,
                          InclusionMode::NINE, 4);
    h.l4 = cache_gen_victim(1 * MiB, 64, false, false);
    specs.push_back(h);

    for (size_t i = specs.size() - 1; i > 0; --i)
        std::swap(specs[i], specs[rng.nextRange(i + 1)]);
    return specs;
}

void
expectSweepMatchesOracle(const std::vector<SimResult> &got,
                         const std::vector<SimResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("config=" + std::to_string(i));
        expectSimEq(got[i], want[i], "two-stage sweep vs own replay");
        EXPECT_EQ(got[i].sampledWindows, want[i].sampledWindows);
        EXPECT_EQ(got[i].representedWindows, want[i].representedWindows);
        EXPECT_EQ(got[i].l3MissVar, want[i].l3MissVar);
    }
}

constexpr uint64_t kDiffRecords = 24'000;
constexpr uint32_t kDiffTraceThreads = 16;
constexpr uint64_t kDiffSeeds[] = {1, 0x5eed, 0xc0ffee};

std::shared_ptr<const BufferedTrace>
makeDiffTrace()
{
    // Small chunks so the exact splits below straddle chunk edges.
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kDiffTraceThreads);
    return BufferedTrace::materialize(src, kDiffRecords, 256);
}

TEST(SweepEngine, TwoStageMatchesPerConfigReplayExact)
{
    const auto trace = makeDiffTrace();
    const uint64_t splits[][2] = {
        {0, kDiffRecords},      // no warmup
        {255, 513},             // straddles chunks, ends mid-trace
        {4'096, 12'345},        // edge-aligned warmup
        {kDiffRecords - 1, 1},  // measure is the final record
        {kDiffRecords + 7, 50}, // warmup runs past the end
    };
    for (const uint64_t seed : kDiffSeeds) {
        const std::vector<HierarchySpec> specs = randomSpecSet(seed);
        for (const auto &s : splits) {
            std::vector<SimResult> want;
            for (const HierarchySpec &spec : specs) {
                CacheHierarchy hier(spec);
                want.push_back(runTrace(*trace, hier, s[0], s[1]));
            }
            for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
                SCOPED_TRACE("seed=" + std::to_string(seed) +
                             " warmup=" + std::to_string(s[0]) +
                             " measure=" + std::to_string(s[1]) +
                             " threads=" + std::to_string(threads));
                SweepOptions opt;
                opt.threads = threads;
                expectSweepMatchesOracle(
                    sweepHierarchies(*trace, specs, s[0], s[1], opt),
                    want);
            }
        }
    }
}

TEST(SweepEngine, TwoStageMatchesPerConfigReplayPlanned)
{
    const auto trace = makeDiffTrace();
    const uint64_t warmup = 3'000, measure = kDiffRecords - warmup;
    for (const SamplingPolicy policy :
         {SamplingPolicy::kUniform, SamplingPolicy::kClustered}) {
        SweepOptions opt;
        opt.policy = policy;
        opt.rep.windowRecords = kDiffRecords / 16;
        opt.rep.warmupRecords = opt.rep.windowRecords / 2;
        opt.rep.sampleWindows = 4;
        opt.rep.seed = 0x5a3b1e;
        const SamplingPlan plan =
            buildSweepPlan(*trace, warmup + measure, opt);
        ASSERT_TRUE(plan.enabled());
        for (const uint64_t seed : kDiffSeeds) {
            const std::vector<HierarchySpec> specs = randomSpecSet(seed);
            std::vector<SimResult> want;
            for (const HierarchySpec &spec : specs) {
                CacheHierarchy hier(spec);
                want.push_back(runTracePlanned(*trace, hier, plan));
            }
            for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
                SCOPED_TRACE(std::string(samplingPolicyName(policy)) +
                             " seed=" + std::to_string(seed) +
                             " threads=" + std::to_string(threads));
                opt.threads = threads;
                expectSweepMatchesOracle(
                    sweepHierarchies(*trace, specs, warmup, measure, opt),
                    want);
            }
        }
    }
}

TEST(SweepEngine, RunParallelJobsCoversEveryIndexOnce)
{
    for (const uint32_t threads : {0u, 1u, 3u, 16u}) {
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h.store(0);
        runParallelJobs(hits.size(), threads,
                        [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "threads " << threads
                                         << " index " << i;
    }
}

TEST(SweepEngine, SimThreadsHonoursEnvOverride)
{
    ::setenv("WSEARCH_SIM_THREADS", "7", 1);
    EXPECT_EQ(simThreads(), 7u);
    ::unsetenv("WSEARCH_SIM_THREADS");
    EXPECT_GE(simThreads(), 1u);
}

} // namespace
} // namespace wsearch
