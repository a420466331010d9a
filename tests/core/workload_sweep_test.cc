#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "trace/synthetic.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

/** Small budgets so the full suite stays fast. */
RunOptions
smallOpt(uint64_t l3_bytes)
{
    RunOptions opt;
    opt.cores = 4;
    opt.l3Bytes = l3_bytes;
    opt.measureRecords = 60'000;
    opt.warmupRecords = 30'000;
    return opt;
}

void
expectSystemEq(const SystemResult &a, const SystemResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.dtlbWalks, b.dtlbWalks);
    EXPECT_EQ(a.itlbWalks, b.itlbWalks);
    const CacheLevelStats *as[] = {&a.l1i, &a.l1d, &a.l2, &a.l3, &a.l4};
    const CacheLevelStats *bs[] = {&b.l1i, &b.l1d, &b.l2, &b.l3, &b.l4};
    for (int lvl = 0; lvl < 5; ++lvl) {
        for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
            ASSERT_EQ(as[lvl]->accesses[k], bs[lvl]->accesses[k])
                << "level " << lvl << " kind " << k;
            ASSERT_EQ(as[lvl]->misses[k], bs[lvl]->misses[k])
                << "level " << lvl << " kind " << k;
        }
    }
    EXPECT_EQ(a.l3Evictions, b.l3Evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.backInvalidations, b.backInvalidations);
    EXPECT_EQ(a.cohUpgrades, b.cohUpgrades);
    EXPECT_EQ(a.cohInvalidations, b.cohInvalidations);
    EXPECT_EQ(a.cohDirtyWritebacks, b.cohDirtyWritebacks);
    EXPECT_DOUBLE_EQ(a.topdown.total(), b.topdown.total());
    EXPECT_DOUBLE_EQ(a.ipcPerThread, b.ipcPerThread);
    EXPECT_DOUBLE_EQ(a.amatL3Ns, b.amatL3Ns);
}

TEST(WorkloadSweep, BitIdenticalToSerialRunWorkloadAtAnyThreadCount)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt = PlatformConfig::plt1();

    std::vector<RunOptions> options = {
        smallOpt(1 * MiB), smallOpt(4 * MiB), smallOpt(16 * MiB)};
    // A variation with an L4 and one with TLB modeling, same thread
    // count (shares the buffer)...
    RunOptions with_l4 = smallOpt(2 * MiB);
    with_l4.l4 = cache_gen_victim(8 * MiB, 64);
    options.push_back(with_l4);
    RunOptions with_tlb = smallOpt(2 * MiB);
    with_tlb.modelTlb = true;
    options.push_back(with_tlb);
    // ...and a different core count, forcing a second trace group.
    RunOptions other_cores = smallOpt(4 * MiB);
    other_cores.cores = 2;
    other_cores.smtWays = 2;
    options.push_back(other_cores);

    std::vector<SystemResult> oracle;
    for (const RunOptions &opt : options)
        oracle.push_back(runWorkload(prof, plt, opt));

    for (const uint32_t threads : {1u, 4u}) {
        SweepOptions sweep;
        sweep.threads = threads;
        const std::vector<SystemResult> got =
            runWorkloadSweep(prof, plt, options, sweep);
        ASSERT_EQ(got.size(), options.size());
        for (size_t i = 0; i < options.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " option=" + std::to_string(i));
            expectSystemEq(got[i], oracle[i]);
            EXPECT_EQ(got[i].sampledWindows, 0u);
        }
    }
}

TEST(WorkloadSweep, RunWorkloadsMatchesSerialPerSpecRuns)
{
    std::vector<WorkloadSpec> specs;
    specs.push_back({WorkloadProfile::s1Leaf(),
                     PlatformConfig::plt1(), smallOpt(2 * MiB)});
    specs.push_back({WorkloadProfile::s1Root(),
                     PlatformConfig::plt1(), smallOpt(4 * MiB)});
    RunOptions plt2_opt = smallOpt(2 * MiB);
    plt2_opt.cores = 2;
    specs.push_back({WorkloadProfile::s2Leaf(),
                     PlatformConfig::plt2(), plt2_opt});

    SweepOptions sweep;
    sweep.threads = 3;
    const std::vector<SystemResult> par = runWorkloads(specs, sweep);
    ASSERT_EQ(par.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec=" + std::to_string(i));
        expectSystemEq(par[i],
                       runWorkload(specs[i].profile,
                                   specs[i].platform, specs[i].opt));
    }
}

TEST(WorkloadSweep, RunWorkloadsPlannedMatchesPerSpecPlannedRuns)
{
    // The planned branch of runWorkloads (bench_table1 --smoke): each
    // spec replays a plan built over its OWN trace and budget.
    std::vector<WorkloadSpec> specs;
    specs.push_back({WorkloadProfile::s1Leaf(),
                     PlatformConfig::plt1(), smallOpt(2 * MiB)});
    RunOptions small_opt = smallOpt(4 * MiB);
    small_opt.cores = 2;
    small_opt.measureRecords = 30'000;
    specs.push_back({WorkloadProfile::s1Root(),
                     PlatformConfig::plt1(), small_opt});
    SweepOptions sweep;
    sweep.policy = SamplingPolicy::kUniform;
    sweep.rep.windowRecords = 3'000;
    sweep.rep.warmupRecords = 3'000;
    sweep.rep.sampleWindows = 5;

    std::vector<SystemResult> want;
    for (const WorkloadSpec &s : specs) {
        const uint64_t total = recordBudget(s.opt).total();
        SyntheticSearchTrace src(s.profile, s.opt.cores * s.opt.smtWays);
        const auto trace = BufferedTrace::materialize(src, total);
        SystemSimulator sim(
            makeSystemConfig(s.profile, s.platform, s.opt));
        want.push_back(sim.runPlanned(
            *trace, buildSweepPlan(*trace, total, sweep)));
    }
    for (const uint32_t threads : {1u, 3u}) {
        sweep.threads = threads;
        const std::vector<SystemResult> got = runWorkloads(specs, sweep);
        ASSERT_EQ(got.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " spec=" + std::to_string(i));
            expectSystemEq(got[i], want[i]);
            EXPECT_EQ(got[i].sampledWindows, 5u);
            EXPECT_EQ(got[i].sampledWindows, want[i].sampledWindows);
            EXPECT_EQ(got[i].representedWindows,
                      want[i].representedWindows);
            EXPECT_EQ(got[i].l3MissVar, want[i].l3MissVar);
            EXPECT_EQ(got[i].ipcPerThread, want[i].ipcPerThread);
        }
    }
    // The two specs' budgets differ, so their plans do too.
    EXPECT_NE(want[0].representedWindows, want[1].representedWindows);
}

TEST(WorkloadSweep, SampledModeReportsWindowsAndApproximatesExact)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt = PlatformConfig::plt1();
    std::vector<RunOptions> options = {smallOpt(4 * MiB)};

    // The --smoke route: a uniform plan with the default knobs.
    const uint64_t total = recordBudget(options[0]).total();
    SweepOptions sweep;
    sweep.threads = 1;
    sweep.policy = SamplingPolicy::kUniform;
    sweep.rep = defaultRepresentativeSampling(total);
    const std::vector<SystemResult> sampled =
        runWorkloadSweep(prof, plt, options, sweep);
    ASSERT_EQ(sampled.size(), 1u);
    const SamplingPlan plan = buildUniformPlan(total, sweep.rep);
    ASSERT_TRUE(plan.enabled());
    EXPECT_EQ(sampled[0].sampledWindows, plan.windows.size());
    EXPECT_EQ(sampled[0].representedWindows, plan.totalWindows);
    EXPECT_GT(sampled[0].l3MissVar, 0.0);

    // The estimate should be in the neighbourhood of the exact run
    // (loose bound; this guards gross accounting bugs, not accuracy).
    const SystemResult exact = runWorkload(prof, plt, options[0]);
    EXPECT_EQ(exact.sampledWindows, 0u);
    EXPECT_GT(sampled[0].ipcPerThread, 0.25 * exact.ipcPerThread);
    EXPECT_LT(sampled[0].ipcPerThread, 4.0 * exact.ipcPerThread);
}

TEST(WorkloadSweep, HitCurvesComeBackOrdered)
{
    // A capacity ladder comes back positional to its options and
    // monotone-ish in capacity.
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const std::vector<RunOptions> options = {
        smallOpt(512 * KiB), smallOpt(2 * MiB), smallOpt(8 * MiB)};
    const std::vector<SystemResult> r =
        runWorkloadSweep(prof, PlatformConfig::plt1(), options);
    ASSERT_EQ(r.size(), options.size());
    EXPECT_LE(r[0].l3DataHitRate(), r[2].l3DataHitRate() + 1e-9);
}

} // namespace
} // namespace wsearch
