/**
 * @file
 * The simulator workload, sim-ladder: an exact LRU NINE L3 capacity
 * ladder (8 sizes) over one S1-leaf capacity-sweep trace, replayed by
 * sweepHierarchies on the pinned sweep threads. Its traced run also
 * measures the core-model and sampling layers: one PLT1
 * SystemSimulator config (SMT2, TLB, inclusive sliced DRRIP LLC, MESI,
 * L4 victim cache) replayed under a clustered SamplingPlan on one
 * thread, over the same trace.
 */

#include <cmath>
#include <functional>
#include <memory>

#include "core/experiments.hh"
#include "trace/synthetic.hh"
#include "workloads.hh"

namespace perfbench {

using namespace wsearch;

namespace {

/** Wall time of each trial, in order and by 1 s window of the run. */
struct Trials
{
    std::vector<double> sec;
    Windowed us{1.0};
};

/**
 * Call @p trial until @p seconds have passed and at least
 * @p min_trials ran.
 */
Trials
timeTrials(double seconds, int min_trials,
           const std::function<void()> &trial)
{
    Trials t;
    const double start = nowSec();
    while (static_cast<int>(t.sec.size()) < min_trials ||
           nowSec() < start + seconds) {
        const double t0 = nowSec();
        trial();
        const double wall = nowSec() - t0;
        t.sec.push_back(wall);
        t.us.add(t0 - start, wall * 1e6);
    }
    return t;
}

constexpr int kMinTrials = 3;

/**
 * Set-ups per run. One trace generation takes tens of ms, so setup_s
 * is read at the lower quartile of many.
 */
constexpr int kSimSetups = 25;

/** Sweep threads, pinned rather than read from the host. */
constexpr uint32_t kSweepThreads = 4;

struct TraceSetup
{
    std::shared_ptr<const BufferedTrace> trace;
    std::vector<double> genSec; ///< one per set-up
};

/**
 * Generate the workload's trace kSimSetups times (the set-up being
 * measured) and keep the last buffer. The previous buffer is released
 * before each regeneration so peak memory holds one trace.
 */
TraceSetup
generateTrace(const WorkloadProfile &prof, uint32_t hw_threads,
              uint64_t seed, uint64_t records)
{
    TraceSetup s;
    for (int i = 0; i < kSimSetups; ++i) {
        s.trace.reset();
        ScopedSpan span("trace.generate");
        const double t0 = nowSec();
        SyntheticSearchTrace src(prof, hw_threads, seed);
        s.trace = BufferedTrace::materialize(src, records);
        s.genSec.push_back(nowSec() - t0);
    }
    return s;
}

double
hitRatio(const CacheLevelStats &s)
{
    const uint64_t a = s.totalAccesses();
    return a ? 1.0 - static_cast<double>(s.totalMisses()) /
            static_cast<double>(a)
             : 0.0;
}

void
setTraceLayer(Outcome &out, const TraceSetup &ts)
{
    const double recs = static_cast<double>(ts.trace->size());
    out.set("trace.gen_mrec_per_s",
            recs / median(tracer().durationsNs("trace.generate")) * 1e3);
    out.set("trace.buffer_mb",
            recs * sizeof(TraceRecord) / (1024.0 * 1024.0));
}

/**
 * Contention from other tenants of a shared host only ever adds time,
 * so set-up and throughput are taken at the lower quartile of their
 * repeats, and the trial timings per 1 s window at the quietest
 * quartile of windows (see Windowed).
 */
void
setEndToEnd(Outcome &out, const std::vector<double> &setup_sec,
            const Trials &trials, double work_per_trial)
{
    const LatencySummary lat = trials.us.summary();
    const double rate = work_per_trial / quantile(trials.sec, 0.25);
    out.set("setup_s", quantile(setup_sec, 0.25));
    out.set("throughput_per_s", rate);
    out.set("p50_us", lat.p50);
    out.set("tail_us", lat.tail);
    out.noteLatency("trial_us", lat);
    out.noteLatency("trial_whole_run_us", trials.us.wholeRun());
    out.note("sim_mrec_per_s", rate * 1e-6);
}

// ----- the core-model and sampling layers (traced run) --------------

constexpr uint32_t kSystemCores = 8;
constexpr uint32_t kSystemSmt = 2;
constexpr uint32_t kSystemWindows = 96;
constexpr uint32_t kSystemClusters = 12;
constexpr int kSystemRepeats = 3;

SystemConfig
systemConfig(const WorkloadProfile &prof)
{
    RunOptions opt;
    opt.cores = kSystemCores;
    opt.smtWays = kSystemSmt;
    opt.l3Bytes = 1 * MiB;
    opt.l3Ways = 16;
    opt.llcInclusion = InclusionMode::Inclusive;
    opt.llcRepl = ReplPolicy::DRRIP;
    opt.llcSlices = 4;
    opt.coherence = CoherenceProtocol::MESI;
    opt.modelTlb = true;
    opt.l4 = cache_gen_victim(1 * GiB / prof.sweepScale, 64);
    return makeSystemConfig(prof, PlatformConfig::plt1(), opt);
}

/**
 * Plan (buildSweepPlan) + replay (SystemSimulator::runPlanned) of the
 * PLT1 system config over @p trace, then an exact contiguous replay as
 * the accuracy oracle and a memsim-only replay of the same spec, whose
 * difference is the core model's own cost.
 */
void
measureSystemLayers(Outcome &out, const WorkloadProfile &prof,
                    const BufferedTrace &trace, uint64_t seed)
{
    const uint64_t records = trace.size();
    const SystemConfig cfg = systemConfig(prof);
    SweepOptions sweep;
    sweep.threads = 1;
    sweep.policy = SamplingPolicy::kClustered;
    sweep.rep.windowRecords = records / kSystemWindows;
    sweep.rep.warmupRecords = sweep.rep.windowRecords / 2;
    sweep.rep.sampleWindows = kSystemClusters;
    sweep.rep.seed = streamSeed(seed, 3);

    SamplingPlan plan;
    SystemResult est;
    for (int i = 0; i < kSystemRepeats; ++i) {
        {
            ScopedSpan span("memsim.plan");
            plan = buildSweepPlan(trace, records, sweep);
        }
        SystemSimulator sim(cfg);
        const SystemResult res = sim.runPlanned(trace, plan);
        if (i == 0)
            est = res;
        out.check(digest(res) == digest(est),
                  "planned system replay repeats");
    }
    uint64_t weight_sum = 0;
    for (const SampleWindow &w : plan.windows)
        weight_sum += w.weight;
    out.check(plan.policy == SamplingPolicy::kClustered &&
                  plan.windows.size() == kSystemClusters &&
                  weight_sum == plan.totalWindows &&
                  plan.totalWindows == kSystemWindows,
              "sampling plan weights cover every window");
    out.check(est.sampledWindows == plan.windows.size() &&
                  est.representedWindows == plan.totalWindows,
              "planned result accounts for the plan");
    out.note("system_digest", hex64(digest(est)));
    out.set("memsim.plan_s",
            median(tracer().durationsNs("memsim.plan")) * 1e-9);
    out.set("memsim.simulated_frac", plan.simulatedFraction());

    SystemResult exact;
    {
        SystemSimulator sim(cfg);
        ScopedSpan span("cpu.run_exact");
        exact = sim.run(trace, 0, records);
    }
    {
        CacheHierarchy hier(cfg.hierarchy);
        ScopedSpan span("memsim.replay_system_spec");
        runTrace(trace, hier, 0, records);
    }
    out.set("cpu.step_ns_per_rec",
            (tracer().durationsNs("cpu.run_exact")[0] -
             tracer().durationsNs("memsim.replay_system_spec")[0]) /
                static_cast<double>(records));

    const double sampled = static_cast<double>(est.l3.totalMisses());
    const double truth = static_cast<double>(exact.l3.totalMisses());
    out.set("memsim.sample_rel_err",
            truth > 0 ? std::fabs(sampled - truth) / truth : 0.0);
    out.set("memsim.band_covers",
            truth >= est.l3MissBandLo() && truth <= est.l3MissBandHi()
                ? 1.0
                : 0.0);
    const double represented = static_cast<double>(
        plan.totalWindows * plan.windowRecords);
    out.set("memsim.coh_events_per_krec",
            static_cast<double>(est.cohUpgrades + est.cohInvalidations +
                                est.cohDirtyWritebacks) /
                represented * 1e3);
    out.set("memsim.l4_hit_ratio", hitRatio(est.l4));
}

// ----- sim-ladder ---------------------------------------------------

constexpr uint32_t kLadderCores = 16;
constexpr uint64_t kLadderWarmup = 500'000;
constexpr uint64_t kLadderMeasure = 1'000'000;

std::vector<HierarchySpec>
ladderSpecs(const WorkloadProfile &prof)
{
    const PlatformConfig plt1 = PlatformConfig::plt1();
    std::vector<HierarchySpec> specs;
    for (uint64_t l3 = 128 * KiB; l3 <= 16 * MiB; l3 *= 2) {
        RunOptions opt;
        opt.cores = kLadderCores;
        opt.smtWays = 1;
        opt.l3Bytes = l3;
        opt.l3Ways = 16;
        specs.push_back(makeSystemConfig(prof, plt1, opt).hierarchy);
    }
    return specs;
}

uint64_t
ladderDigest(const std::vector<SimResult> &res)
{
    uint64_t h = 0;
    for (const SimResult &r : res)
        h = digestCombine(h, digest(r));
    return h;
}

} // namespace

Outcome
runSimLadder(const Args &args)
{
    Outcome out;
    const WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    const uint64_t trace_seed = streamSeed(args.seed, 1);
    const uint64_t records = kLadderWarmup + kLadderMeasure;
    tracer().setEnabled(args.trace); // set-up spans in the traced run
    const TraceSetup ts =
        generateTrace(prof, kLadderCores, trace_seed, records);
    const std::vector<HierarchySpec> specs = ladderSpecs(prof);
    const double work = static_cast<double>(specs.size() * records);

    SweepOptions sweep;
    sweep.threads = kSweepThreads;
    sweep.policy = SamplingPolicy::kOff;

    std::vector<SimResult> first;
    uint64_t first_digest = 0;
    auto trial = [&] {
        std::vector<SimResult> res;
        {
            ScopedSpan span("memsim.sweep");
            res = sweepHierarchies(*ts.trace, specs, kLadderWarmup,
                                   kLadderMeasure, sweep);
        }
        const uint64_t d = ladderDigest(res);
        if (first.empty()) {
            first = std::move(res);
            first_digest = d;
        }
        out.check(d == first_digest, "sim-ladder digest repeats");
    };

    const bool traced = args.trace;
    tracer().setEnabled(false);
    const double untraced_secs = traced ? args.seconds / 2 : args.seconds;
    const Trials trials =
        timeTrials(untraced_secs, kMinTrials, trial);

    // Reference route: one config, chosen by the seed, replayed
    // serially from a freshly generated pull trace (no buffer, no
    // sweep engine) must match the sweep counter for counter.
    {
        const size_t c = args.seed % specs.size();
        SyntheticSearchTrace src(prof, kLadderCores, trace_seed);
        CacheHierarchy hier(specs[c]);
        const SimResult ref =
            runTrace(src, hier, kLadderWarmup, kLadderMeasure);
        out.check(digest(ref) == digest(first[c]),
                  "sim-ladder sweep matches serial runTrace");
    }
    out.note("digest", hex64(first_digest));
    out.note("sweep_threads", kSweepThreads);
    out.note("configs", static_cast<double>(specs.size()));
    out.note("records", static_cast<double>(records));

    if (!traced) {
        setEndToEnd(out, ts.genSec, trials, work);
        return out;
    }

    tracer().setEnabled(true);
    const Trials traced_trials =
        timeTrials(args.seconds / 2, kMinTrials, trial);
    out.set("tracing.overhead_frac",
            median(traced_trials.sec) / median(trials.sec) - 1.0);
    setTraceLayer(out, ts);

    // Single-thread replay of every config: per-config busy time.
    for (size_t c = 0; c < specs.size(); ++c) {
        CacheHierarchy hier(specs[c]);
        SimResult r;
        {
            ScopedSpan span("memsim.replay");
            r = runTrace(*ts.trace, hier, kLadderWarmup, kLadderMeasure);
        }
        out.check(digest(r) == digest(first[c]),
                  "sim-ladder single-thread replay matches sweep");
    }
    double busy_ns = 0;
    for (const double ns : tracer().durationsNs("memsim.replay"))
        busy_ns += ns;
    out.set("memsim.replay_ns_per_rec", busy_ns / work);
    out.set("memsim.sweep_efficiency",
            busy_ns / (kSweepThreads *
                       median(tracer().durationsNs("memsim.sweep"))));
    const SimResult &r0 = first[0];
    out.set("memsim.l1i_lookups_per_rec",
            static_cast<double>(r0.l1i.totalAccesses()) /
                static_cast<double>(kLadderMeasure));
    out.set("memsim.l1i_hit_ratio", hitRatio(r0.l1i));
    out.set("memsim.l1d_hit_ratio", hitRatio(r0.l1d));
    measureSystemLayers(out, prof, *ts.trace, args.seed);
    return out;
}

} // namespace perfbench
