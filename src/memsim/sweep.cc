#include "memsim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

#include "util/env.hh"

namespace wsearch {

namespace {

/**
 * Relative floor on the confidence-band half-width. The analytic band
 * captures signature-predicted dispersion but not the warmup bias of
 * skipped state; the floor keeps the band honest when clusters are
 * internally homogeneous.
 */
constexpr double kBandRelFloor = 0.03;

/**
 * Walk a sweep's replay schedule: the plan's windows, or, with no
 * plan, runTrace's exact split (warmup, reset, then measure from
 * where the warmup ended) as window 0.
 */
template <typename Pump, typename Reset, typename Window>
void
walkSchedule(const SamplingPlan &plan, uint64_t warmup,
             uint64_t measure, Pump pump, Reset reset, Window window)
{
    if (plan.enabled()) {
        walkPlan(plan, pump, reset, window);
        return;
    }
    const uint64_t warmed = pump(0, warmup);
    reset();
    window(0, pump(warmed, measure));
}

/**
 * True when the private levels of @p spec never read the shared ones,
 * so one step-1 replay can feed any LLC/L4 behind them. Only an
 * inclusive LLC reaches back up (back-invalidation).
 */
bool
splitsAtL2(const HierarchySpec &spec)
{
    return !spec.hasLlc ||
        spec.llc.inclusion != InclusionMode::Inclusive;
}

/** Same cores, SMT, L1/L2, prefetchers and coherence. */
bool
samePrivateLevels(const HierarchySpec &a, const HierarchySpec &b)
{
    return a.numCores == b.numCores && a.smtWays == b.smtWays &&
        a.l1i == b.l1i && a.l1d == b.l1d && a.l2 == b.l2 &&
        a.l2InstrPartitionWays == b.l2InstrPartitionWays &&
        a.prefetch == b.prefetch && a.coherence == b.coherence;
}

/** The specs that share one step-1 replay, and its output. */
struct PrivateGroup
{
    size_t leader = 0;           ///< index of the group's first spec
    bool cleanEvictions = false; ///< a member's LLC is exclusive
    uint32_t parts = 1;          ///< step-1 parts, split by core
    std::vector<uint32_t> partOf; ///< thread id -> part

    /** Per part, what the shared levels see, in record order. */
    std::vector<SharedEventLog> logs;
    /** Private counters per measured window, summed over parts. */
    std::vector<SimResult> windows;
};

/** One step-1 part's output. */
struct PartReplay
{
    SharedEventLog log;
    std::vector<SimResult> windows;
};

/**
 * Step 1, one part: replay the private levels of the group's cores
 * c % parts == @p part over the sweep's schedule, skipping the other
 * parts' records.
 */
PartReplay
replayPrivate(const BufferedTrace &trace, const HierarchySpec &spec,
              const PrivateGroup &group, uint32_t part,
              const SamplingPlan &plan, uint64_t warmup,
              uint64_t measure)
{
    PartReplay out;
    SharedEventLog &log = out.log;
    log.cleanEvictions = group.cleanEvictions;
    CacheHierarchy hier(spec, log, part, group.parts);
    const auto pump = [&](uint64_t begin, uint64_t count) {
        uint64_t idx = begin;
        return trace.forEachSpan(
            begin, count, [&](const TraceRecord *rec, size_t n) {
                for (size_t i = 0; i < n; ++i) {
                    const TraceRecord &r = rec[i];
                    if (group.partOf[r.tid] != part)
                        continue;
                    log.record = idx + i;
                    hier.accessInstr(r.tid, r.pc);
                    if (r.hasData())
                        hier.accessData(r.tid, r.pc, r.addr,
                                        r.isStore(), r.kind);
                }
                idx += n;
            });
    };
    walkSchedule(
        plan, warmup, measure, pump, [&] { hier.resetStats(); },
        [&](size_t, uint64_t done) {
            out.windows.push_back(harvestCounters(hier, done));
        });
    return out;
}

/**
 * Step 2: replay @p spec's LLC/L4 over its group's event stream on
 * the same schedule, resetting and reading the shared stats at the
 * same record indices, and combine them with the private counters.
 * The parts' streams are merged by record index on the way: a
 * record's events all come from the part owning its core, so the
 * merge keeps replay order.
 */
SimResult
replayShared(const HierarchySpec &spec, const PrivateGroup &group,
             uint64_t records, const SamplingPlan &plan,
             uint64_t warmup, uint64_t measure)
{
    SharedLevels shared(spec);
    struct Cursor
    {
        const std::vector<SharedEvent> *block, *last;
        size_t i = 0;

        const SharedEvent *
        peek() const
        {
            return block != last ? &(*block)[i] : nullptr;
        }

        const SharedEvent &
        pop()
        {
            const SharedEvent &e = (*block)[i];
            if (++i == block->size()) {
                ++block;
                i = 0;
            }
            return e;
        }
    };
    std::vector<Cursor> heads;
    for (const SharedEventLog &log : group.logs)
        heads.push_back({log.blocks.data(),
                         log.blocks.data() + log.blocks.size()});
    const auto pump = [&](uint64_t begin, uint64_t count) {
        const uint64_t done =
            begin < records ? std::min(count, records - begin) : 0;
        const uint64_t end = begin + done;
        for (;;) {
            Cursor *next = nullptr;
            uint64_t at = end;
            for (Cursor &c : heads) {
                const SharedEvent *e = c.peek();
                if (e && e->record() < at) {
                    at = e->record();
                    next = &c;
                }
            }
            if (!next)
                return done;
            const SharedEvent &e = next->pop();
            if (e.eviction())
                shared.fillFromL2Eviction(e.addr, e.write());
            else
                shared.access(e.addr, e.write(), e.kind());
        }
    };
    std::vector<SimResult> wins = group.windows;
    walkSchedule(
        plan, warmup, measure, pump, [&] { shared.resetStats(); },
        [&](size_t i, uint64_t done) {
            SimResult &r = wins[i];
            r.instructions = done;
            r.l3 = shared.l3Stats();
            r.l4 = shared.l4Stats();
            r.l3Evictions = shared.l3Evictions();
            r.writebacks += shared.writebacks();
        });
    return plan.enabled() ? mergePlanWindows(plan, wins) : wins[0];
}

} // namespace

const char *
samplingPolicyName(SamplingPolicy p)
{
    switch (p) {
      case SamplingPolicy::kUniform:
        return "uniform";
      case SamplingPolicy::kClustered:
        return "clustered";
      case SamplingPolicy::kOff:
        break;
    }
    return "off";
}

uint64_t
sampleSeed(uint64_t s)
{
    if (s)
        return s;
    // Fixed built-in default keeps CI runs reproducible without any
    // environment setup; WSEARCH_SAMPLE_SEED re-rolls the clustering.
    return envU64("WSEARCH_SAMPLE_SEED", 0x5eedc0de12345678ull);
}

RepresentativeSampling
defaultRepresentativeSampling(uint64_t total_records, uint32_t windows,
                              uint32_t sample_windows)
{
    windows = envU32("WSEARCH_SAMPLE_WINDOWS", windows);
    sample_windows = envU32("WSEARCH_SAMPLE_CLUSTERS", sample_windows);
    RepresentativeSampling rep;
    if (total_records == 0 || windows == 0 || sample_windows == 0)
        return rep;
    rep.windowRecords =
        std::max<uint64_t>(1, total_records / windows);
    // Warmup per sampled window. Architectural state is carried across
    // skipped gaps, but the cache still re-warms from whatever the gap
    // would have loaded; a full window of uncounted warmup before each
    // measured window keeps that cold-state bias inside the reported
    // band (the bench_fig6bc gate checks exactly this).
    rep.warmupRecords =
        envU64("WSEARCH_SAMPLE_WARMUP", rep.windowRecords);
    rep.sampleWindows = sample_windows;
    return rep;
}

uint64_t
SamplingPlan::simulatedRecords() const
{
    uint64_t pos = 0;
    uint64_t sim = 0;
    for (const SampleWindow &w : windows) {
        const uint64_t warm_begin = std::max(
            pos, w.begin > warmupRecords ? w.begin - warmupRecords : 0);
        sim += (w.begin - std::min(warm_begin, w.begin)) + w.records;
        pos = w.begin + w.records;
    }
    return sim;
}

double
SamplingPlan::simulatedFraction() const
{
    const uint64_t denom = totalWindows * windowRecords;
    if (denom == 0)
        return 1.0;
    return static_cast<double>(simulatedRecords()) /
        static_cast<double>(denom);
}

SamplingPlan
buildUniformPlan(uint64_t total_records,
                 const RepresentativeSampling &rep)
{
    SamplingPlan plan;
    plan.policy = SamplingPolicy::kUniform;
    plan.windowRecords = rep.windowRecords;
    plan.warmupRecords = rep.warmupRecords;
    if (!rep.enabled() || total_records == 0)
        return plan;
    const uint64_t total_windows =
        (total_records + rep.windowRecords - 1) / rep.windowRecords;
    plan.totalWindows = total_windows;
    const uint64_t k =
        std::min<uint64_t>(rep.sampleWindows, total_windows);
    plan.windows.reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
        const uint64_t idx = i * total_windows / k;
        const uint64_t next =
            i + 1 < k ? (i + 1) * total_windows / k : total_windows;
        SampleWindow w;
        w.begin = idx * rep.windowRecords;
        w.records = std::min(rep.windowRecords, total_records - w.begin);
        w.weight = next - idx; // gaps partition [0, total_windows)
        plan.windows.push_back(w);
    }
    return plan;
}

SamplingPlan
buildClusteredPlan(const BufferedTrace &trace, uint64_t total_records,
                   const RepresentativeSampling &rep)
{
    SamplingPlan plan;
    plan.policy = SamplingPolicy::kClustered;
    plan.windowRecords = rep.windowRecords;
    plan.warmupRecords = rep.warmupRecords;
    if (!rep.enabled())
        return plan;
    total_records = std::min(total_records, trace.size());
    const std::vector<WindowSignature> sigs =
        extractWindowSignatures(trace, total_records, rep.windowRecords);
    const size_t n = sigs.size();
    plan.totalWindows = n;
    if (n == 0)
        return plan;

    const std::vector<SignatureVec> feats = standardizedFeatures(sigs);

    // Degenerate k >= N case: every window selected with weight 1 (an
    // explicit short-circuit -- k-means can merge coincident feature
    // vectors, and the exact-reconstruction guarantee must not depend
    // on feature distinctness).
    if (rep.sampleWindows >= n) {
        plan.windows.reserve(n);
        plan.clusterSqDist.assign(n, 0.0);
        plan.centroids.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            SampleWindow w;
            w.begin = sigs[i].begin;
            w.records = sigs[i].records;
            w.weight = 1;
            plan.windows.push_back(w);
            plan.centroids.push_back(feats[i]);
        }
        return plan;
    }

    const KMeansResult cl =
        kMeansCluster(feats, rep.sampleWindows, sampleSeed(rep.seed));
    const size_t k = cl.centroids.size();

    // Per cluster: population, dispersion, and the member closest to
    // the centroid (lowest index on ties) as its representative.
    std::vector<uint64_t> count(k, 0);
    std::vector<double> sqdist(k, 0.0);
    std::vector<size_t> repIdx(k, 0);
    std::vector<double> repDist(
        k, std::numeric_limits<double>::max());
    for (size_t i = 0; i < n; ++i) {
        const uint32_t c = cl.assignment[i];
        const double d = sigDistSq(feats[i], cl.centroids[c]);
        ++count[c];
        sqdist[c] += d;
        if (d < repDist[c]) {
            repDist[c] = d;
            repIdx[c] = i;
        }
    }

    struct Entry
    {
        SampleWindow w;
        double sq;
        SignatureVec cen;
    };
    std::vector<Entry> entries;
    entries.reserve(k);
    for (size_t c = 0; c < k; ++c) {
        if (count[c] == 0)
            continue;
        Entry e;
        e.w.begin = sigs[repIdx[c]].begin;
        e.w.records = sigs[repIdx[c]].records;
        e.w.weight = count[c];
        e.sq = sqdist[c];
        e.cen = cl.centroids[c];
        entries.push_back(e);
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.w.begin < b.w.begin;
              });
    plan.windows.reserve(entries.size());
    plan.clusterSqDist.reserve(entries.size());
    plan.centroids.reserve(entries.size());
    for (const Entry &e : entries) {
        plan.windows.push_back(e.w);
        plan.clusterSqDist.push_back(e.sq);
        plan.centroids.push_back(e.cen);
    }
    return plan;
}

double
planVariance(const SamplingPlan &plan,
             const std::vector<double> &rep_metric,
             double estimate_total)
{
    if (!plan.enabled() || rep_metric.size() != plan.windows.size())
        return 0.0;
    const size_t k = plan.windows.size();
    double var = 0.0;

    if (plan.policy == SamplingPolicy::kClustered &&
        plan.centroids.size() == k) {
        // Within-cluster signature dispersion projected through the
        // steepest locally observed metric gradient between cluster
        // centroids: g_c = max_{c'} |m_c - m_c'| / ||mu_c - mu_c'||,
        // Var = sum_c g_c^2 * sum_{i in c} ||x_i - mu_c||^2.
        for (size_t c = 0; c < k; ++c) {
            double g = 0.0;
            for (size_t c2 = 0; c2 < k; ++c2) {
                if (c2 == c)
                    continue;
                const double dist = std::sqrt(
                    sigDistSq(plan.centroids[c], plan.centroids[c2]));
                if (dist > 1e-9)
                    g = std::max(
                        g, std::fabs(rep_metric[c] - rep_metric[c2]) /
                            dist);
            }
            var += g * g * plan.clusterSqDist[c];
        }
    } else if (k > 1 && plan.totalWindows > k) {
        // Uniform plans: simple-random-sample between-window variance
        // of the N*mean estimator with finite population correction.
        const double nn = static_cast<double>(k);
        const double N = static_cast<double>(plan.totalWindows);
        double mean = 0.0;
        for (const double m : rep_metric)
            mean += m;
        mean /= nn;
        double s2 = 0.0;
        for (const double m : rep_metric)
            s2 += (m - mean) * (m - mean);
        s2 /= (nn - 1.0);
        var = N * N * (s2 / nn) * (1.0 - nn / N);
    }

    // Relative floor: the analytic models see signature-predicted
    // dispersion but not warmup bias from skipped state.
    const double floor_hw = kBandRelFloor * estimate_total;
    const double floor_var = (floor_hw / 1.96) * (floor_hw / 1.96);
    return std::max(var, floor_var);
}

uint32_t
simThreads()
{
    const uint64_t v = envU64("WSEARCH_SIM_THREADS", 0);
    if (v > 0)
        return static_cast<uint32_t>(std::min<uint64_t>(v, 1024));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
runParallelJobs(size_t njobs, uint32_t threads,
                const std::function<void(size_t)> &job)
{
    if (threads == 0)
        threads = simThreads();
    threads = static_cast<uint32_t>(
        std::min<size_t>(threads, njobs));
    if (threads <= 1) {
        for (size_t i = 0; i < njobs; ++i)
            job(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= njobs)
                    return;
                job(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

SimResult
runTracePlanned(const BufferedTrace &trace, CacheHierarchy &hier,
                const SamplingPlan &plan)
{
    if (!plan.enabled())
        return runTrace(trace, hier, 0, trace.size());
    return replayPlan<SimResult>(
        plan,
        [&](uint64_t begin, uint64_t count) {
            return pumpRange(trace, hier, begin, count);
        },
        [&] { hier.resetStats(); },
        [&](uint64_t done) { return harvestCounters(hier, done); });
}

SamplingPlan
buildSweepPlan(const BufferedTrace &trace, uint64_t total,
               const SweepOptions &opt)
{
    total = std::min(total, trace.size());
    if (opt.policy == SamplingPolicy::kClustered && opt.rep.enabled())
        return buildClusteredPlan(trace, total, opt.rep);
    if (opt.policy == SamplingPolicy::kUniform && opt.rep.enabled())
        return buildUniformPlan(total, opt.rep);
    return SamplingPlan{};
}

std::vector<SimResult>
sweepHierarchies(const BufferedTrace &trace,
                 const std::vector<HierarchySpec> &specs,
                 uint64_t warmup, uint64_t measure,
                 const SweepOptions &opt)
{
    std::vector<SimResult> results(specs.size());
    // Plans depend only on the trace, never on the configuration:
    // build once, share read-only across all workers.
    const SamplingPlan plan =
        buildSweepPlan(trace, warmup + measure, opt);
    const uint32_t threads = opt.threads ? opt.threads : simThreads();

    // Group the specs that split at the L2 by their private levels.
    constexpr size_t kFullReplay = ~size_t(0);
    std::vector<size_t> group_of(specs.size(), kFullReplay);
    std::vector<PrivateGroup> groups;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (!splitsAtL2(specs[i]))
            continue;
        size_t g = 0;
        while (g < groups.size() &&
               !samePrivateLevels(specs[groups[g].leader], specs[i]))
            ++g;
        if (g == groups.size()) {
            groups.emplace_back();
            groups[g].leader = i;
        }
        group_of[i] = g;
        groups[g].cleanEvictions |= specs[i].hasLlc &&
            specs[i].llc.inclusion == InclusionMode::Exclusive;
    }

    // Step 1: each group's private levels, split by core across the
    // threads. Coherence couples the cores, so it runs as one part.
    struct Part
    {
        size_t group;
        uint32_t part;
    };
    std::vector<Part> jobs;
    const uint32_t share = groups.empty()
        ? 1
        : static_cast<uint32_t>((threads + groups.size() - 1) /
                                groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
        PrivateGroup &grp = groups[g];
        const HierarchySpec &spec = specs[grp.leader];
        grp.parts = spec.coherence != CoherenceProtocol::None
            ? 1
            : std::min(spec.numCores, share);
        // Every uint16_t tid -> coreOf(tid) % parts, without dividing.
        grp.partOf.resize(size_t(1) << 16);
        uint32_t lane = 0, core = 0, part = 0;
        for (uint32_t &p : grp.partOf) {
            p = part;
            if (++lane < spec.smtWays)
                continue;
            lane = 0;
            if (++core == spec.numCores)
                core = part = 0;
            else if (++part == grp.parts)
                part = 0;
        }
        for (uint32_t p = 0; p < grp.parts; ++p)
            jobs.push_back({g, p});
    }
    std::vector<PartReplay> part_out(jobs.size());
    runParallelJobs(jobs.size(), threads, [&](size_t j) {
        const PrivateGroup &grp = groups[jobs[j].group];
        part_out[j] = replayPrivate(trace, specs[grp.leader], grp,
                                    jobs[j].part, plan, warmup,
                                    measure);
    });
    for (size_t j = 0; j < jobs.size(); ++j) {
        PrivateGroup &grp = groups[jobs[j].group];
        PartReplay &out = part_out[j];
        if (jobs[j].part == 0)
            grp.windows = std::move(out.windows);
        else
            for (size_t w = 0; w < grp.windows.size(); ++w)
                grp.windows[w] += out.windows[w];
        grp.logs.push_back(std::move(out.log));
    }
    part_out.clear();

    // Step 2: every split spec's LLC/L4 over its group's stream, next
    // to the full replays of the rest (queued first: they are longer).
    std::vector<size_t> order;
    for (size_t i = 0; i < specs.size(); ++i)
        if (group_of[i] == kFullReplay)
            order.push_back(i);
    for (size_t i = 0; i < specs.size(); ++i)
        if (group_of[i] != kFullReplay)
            order.push_back(i);
    runParallelJobs(order.size(), threads, [&](size_t j) {
        const size_t i = order[j];
        if (group_of[i] != kFullReplay) {
            results[i] = replayShared(specs[i], groups[group_of[i]],
                                      trace.size(), plan, warmup,
                                      measure);
            return;
        }
        CacheHierarchy hier(specs[i]);
        results[i] = plan.enabled()
            ? runTracePlanned(trace, hier, plan)
            : runTrace(trace, hier, warmup, measure);
    });
    return results;
}

} // namespace wsearch
