/**
 * @file
 * The serving workload, serve-hot: open-loop Poisson load on a frozen
 * packed-codec LeafWorkerPool (2 workers, striped query cache on and
 * warmed to its steady state, Zipf-popular queries), stepped through a
 * fixed ladder of absolute rates, then held at one fixed rate. Its
 * traced run also measures the live-index layers: a writer ingesting
 * into two LiveIndex shards at a fixed document rate (commit,
 * mergeOnce, rolloutAll) beside two closed-loop clients querying a
 * 2-shard x 2-replica ClusterServer through handle(), cache off. */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "openloop.hh"
#include "search/corpus.hh"
#include "search/index.hh"
#include "search/live/live_index.hh"
#include "search/live/snapshot_search.hh"
#include "serve/cluster.hh"
#include "serve/worker_pool.hh"
#include "workloads.hh"

namespace perfbench {

using namespace wsearch;

namespace {

/** Set-ups per run; setup_s is their lower quartile. */
constexpr int kSetups = 5;

/** Mean duration of the named spans, scaled (1e-3 = us). */
double
spanMean(const char *name, double scale)
{
    return mean(tracer().durationsNs(name)) * scale;
}

double
spanMean(const char *name, int64_t tag, double scale)
{
    return mean(tracer().durationsNs(name, tag)) * scale;
}

/** Durations of the named spans in us. */
std::vector<double>
spanUs(const char *name)
{
    std::vector<double> v = tracer().durationsNs(name);
    for (double &x : v)
        x *= 1e-3;
    return v;
}

void
setExecLayer(Outcome &out, const ExecStats &stats, uint64_t queries)
{
    const LatencySummary s = summarize(spanUs("search.serve"));
    out.set("search.exec_us_p50", s.p50);
    out.set("search.exec_us_p99", s.tail);
    out.set("search.decoded_per_query",
            static_cast<double>(stats.postingsDecoded) /
                static_cast<double>(queries));
    out.set("search.scored_per_decoded",
            stats.postingsDecoded
                ? static_cast<double>(stats.candidatesScored) /
                    static_cast<double>(stats.postingsDecoded)
                : 0.0);
    const uint64_t blocks = stats.blocksDecoded + stats.blocksSkipped;
    out.set("search.blocks_skipped_ratio",
            blocks ? static_cast<double>(stats.blocksSkipped) /
                    static_cast<double>(blocks)
                   : 0.0);
}

void
setPoolLayer(Outcome &out, const ServeSnapshot &s, uint32_t workers,
             double wall_sec)
{
    out.set("serve.queue_wait_us_mean",
            (s.sojournNs.mean() - s.serviceNs.mean()) * 1e-3);
    out.set("serve.worker_busy_frac",
            s.serviceNs.mean() * static_cast<double>(s.serviceNs.count()) *
                1e-9 / (workers * wall_sec));
    out.set("serve.shed_frac",
            s.submitted ? static_cast<double>(s.shed) /
                    static_cast<double>(s.submitted)
                        : 0.0);
}

bool
sameDocs(const std::vector<ScoredDoc> &a, const std::vector<ScoredDoc> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].doc != b[i].doc || a[i].score != b[i].score)
            return false;
    return true;
}

// ----- serve-hot ----------------------------------------------------

constexpr uint32_t kHotDocs = 12000;
constexpr uint32_t kHotVocab = 20000;
constexpr uint32_t kHotWorkers = 2;
/** Steady hit ratio near 37% on the traffic below (see buildHot). */
constexpr size_t kHotCache = 1024;
constexpr size_t kHotQueries = 1u << 17;
/** Closed-loop requests that bring the cache to its steady state. */
constexpr size_t kHotWarmQueries = 1u << 15;

/**
 * The offered-rate ladder (queries/s) and the latency limit on the
 * p99 that qps_at_slo is judged by. Absolute and fixed: see
 * RATIONALE.md for how they were picked. p50_us and tail_us are
 * measured at kHotFixedRate, below the first rung and about a third
 * of the rate where the ladder crosses the limit.
 */
constexpr double kHotLadder[] = {8000,  12000, 14000, 15000, 16000, 17000,
                                 18000, 19000, 20000, 21000, 22000, 23000,
                                 24000, 25000, 26000, 28000, 30000, 32000,
                                 36000, 40000, 48000, 56000, 64000};
constexpr int kHotLadderPasses = 3;
constexpr double kHotFixedRate = 6000;
constexpr double kHotSloUs = 5000;
constexpr double kHotStepSec = 0.5;
constexpr uint32_t kCheckEvery = 64;

struct HotInputs
{
    std::unique_ptr<MaterializedIndex> index;
    std::vector<SearchRequest> queries;
};

HotInputs
buildHot(uint64_t seed)
{
    HotInputs in;
    CorpusConfig cc;
    cc.numDocs = kHotDocs;
    cc.vocabSize = kHotVocab;
    cc.seed = streamSeed(seed, 11);
    const CorpusGenerator corpus(cc);
    in.index = std::make_unique<MaterializedIndex>(corpus,
                                                   PostingCodec::kPacked);
    QueryGenerator::Config qc;
    qc.vocabSize = kHotVocab;
    // The repository's query traffic model (bench_serve, bench_cluster):
    // Zipf 0.9 over 64 Ki distinct queries. The 1024-entry cache then
    // settles near a 37% hit ratio, the ~35% operating point the
    // repository documents for its cache tier; the median request is
    // a miss in every run.
    qc.distinctQueries = 1u << 16;
    qc.popularityTheta = 0.9;
    qc.maxTerms = 3;
    qc.conjunctiveFrac = 0.7;
    qc.seed = streamSeed(seed, 12);
    QueryGenerator gen(qc);
    in.queries.resize(kHotQueries);
    for (SearchRequest &r : in.queries)
        r.query = gen.next();
    return in;
}

LeafWorkerPool::Config
hotPoolConfig()
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = kHotWorkers;
    pc.queueCapacity = 1u << 16;
    pc.cacheCapacity = kHotCache;
    pc.cacheStripes = 4;
    return pc;
}

/** One open-loop phase against the pool at @p rate for @p sec. */
struct PhaseResult
{
    std::vector<double> latUs; ///< every completed request, in order
    Windowed lat{1.0};
    std::vector<double> lateUs;
    uint64_t sent = 0;
    uint64_t failed = 0; ///< shed, refused, not ok or never completed
    size_t depthAtEnd = 0;
    /** Sampled (query index, served results) pairs for the oracle. */
    std::vector<std::pair<size_t, std::vector<ScoredDoc>>> samples;
};

PhaseResult
runPhase(LeafWorkerPool &pool, const HotInputs &in, double rate,
         double sec, uint64_t seed, size_t &cursor, bool keep_samples)
{
    PhaseResult r;
    OpenLoop ol(poissonSchedule(rate, sec, seed));
    const size_t base = cursor;
    cursor += ol.size();
    const size_t nsamples = keep_samples ? ol.size() / kCheckEvery + 1 : 0;
    std::vector<std::vector<ScoredDoc>> kept(nsamples);
    const uint64_t missing = ol.run(
        [&](size_t i) {
            const SearchRequest &req =
                in.queries[(base + i) % in.queries.size()];
            std::vector<ScoredDoc> *keep =
                keep_samples && i % kCheckEvery == 0
                ? &kept[i / kCheckEvery]
                : nullptr;
            ScopedSpan span("serve.submit");
            const LeafWorkerPool::Admit a = pool.submitAsync(
                req, /*block=*/false,
                [&ol, i, keep](std::vector<ScoredDoc> &&docs,
                               ServeOutcome outcome, uint64_t) {
                    if (keep)
                        *keep = std::move(docs);
                    ol.complete(i, outcome == ServeOutcome::Ok);
                });
            span.setTag(a == LeafWorkerPool::Admit::CacheHit ? 1 : 0);
            if (i + 1 == ol.size())
                r.depthAtEnd = pool.queueDepth();
        },
        /*grace_ns=*/5'000'000'000ull);
    // Quiesce before `ol` and `kept` go out of scope: every callback
    // that still references them has run once drain() returns.
    pool.drain();
    r.sent = ol.size();
    r.failed = missing;
    for (size_t i = 0; i < ol.size(); ++i) {
        r.lateUs.push_back(ol.lateUs(i));
        if (!ol.ok(i)) {
            r.failed += ol.done(i) ? 1 : 0;
            continue;
        }
        r.latUs.push_back(ol.latencyUs(i));
        r.lat.add(static_cast<double>(ol.dueNs(i) - ol.dueNs(0)) * 1e-9,
                  ol.latencyUs(i));
        if (keep_samples && i % kCheckEvery == 0)
            r.samples.emplace_back((base + i) % in.queries.size(),
                                   std::move(kept[i / kCheckEvery]));
    }
    return r;
}

/** p99 of a ladder step, exact over all its requests. */
double
stepP99(const PhaseResult &r)
{
    std::vector<double> v = r.latUs;
    if (v.empty())
        return 1e18;
    std::sort(v.begin(), v.end());
    const size_t idx = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(v.size()))) - 1;
    return v[idx];
}

/**
 * CPU placement of serve-hot's load generator and the pool's workers.
 * The constructor confines the calling thread to all usable CPUs but
 * the highest (CPU 0 takes more of the host's housekeeping); a pool
 * created then inherits that mask for its workers. becomeGenerator()
 * starts one SCHED_IDLE spinner on each worker CPU and moves the
 * calling thread to the CPU left over.
 *
 * Without the split the scheduler wakes a worker on the generator's
 * CPU (wake-affine placement), and one heavy query there delays every
 * send due behind it by up to milliseconds. Without the spinners an
 * idle worker's CPU halts, and on a virtual machine its wake-up then
 * waits for the host's scheduler: on a 4-vCPU VM the fixed-rate p99
 * followed the host's steal time, from 1.1 ms at 1.4% steal to 3.3 ms
 * at 4.6%. A
 * spinner gives way to a waking worker at once, as the idle polling of
 * a latency-critical leaf host does. The destructor stops the spinners
 * and restores the thread's CPUs. With fewer than two usable CPUs it
 * does nothing.
 */
class ServeCpus
{
  public:
    ServeCpus()
    {
        CPU_ZERO(&saved_);
        CPU_ZERO(&workers_);
        if (pthread_getaffinity_np(pthread_self(), sizeof saved_,
                                   &saved_) != 0 ||
            CPU_COUNT(&saved_) < 2)
            return;
        active_ = true;
        workers_ = saved_;
        for (int c = CPU_SETSIZE - 1; c >= 0; --c)
            if (CPU_ISSET(c, &saved_)) {
                generatorCpu_ = c;
                CPU_CLR(c, &workers_);
                break;
            }
        pthread_setaffinity_np(pthread_self(), sizeof workers_, &workers_);
    }

    ~ServeCpus()
    {
        stop_.store(true);
        for (std::thread &t : spinners_)
            t.join();
        if (active_)
            pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
    }

    ServeCpus(const ServeCpus &) = delete;
    ServeCpus &operator=(const ServeCpus &) = delete;

    void
    becomeGenerator()
    {
        if (!active_)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &workers_))
                spinners_.emplace_back([this, c] { spin(c); });
        pinTo(generatorCpu_);
    }

    /** The generator's CPU, or -1 when not split. */
    int generatorCpu() const { return active_ ? generatorCpu_ : -1; }

  private:
    static void
    pinTo(int c)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }

    void
    spin(int c)
    {
        pinTo(c);
        // Only at idle priority: never compete with a worker.
        const sched_param none{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &none) != 0)
            return;
        while (!stop_.load(std::memory_order_relaxed))
            __builtin_ia32_pause();
    }

    cpu_set_t saved_;
    cpu_set_t workers_;
    bool active_ = false;
    int generatorCpu_ = -1;
    std::atomic<bool> stop_{false};
    std::vector<std::thread> spinners_; ///< last: they use the above
};

/** One step of a ladder climb. */
struct Step
{
    double rate = 0;
    double p99 = 0;
    bool pass = false;
};

/**
 * One climb of the ladder: ascend until two steps in a row miss the
 * limit, or one ends with a backlog (the rate is past capacity; going
 * on would only grow the queue). Every request of a step counts; a
 * shed or failed request, or a backlog at the step's end, misses it.
 * Appends the steps to @p json.
 */
std::vector<Step>
ladderPass(LeafWorkerPool &pool, const HotInputs &in,
           const std::function<uint64_t()> &seed_of, size_t &cursor,
           uint64_t &attempted, uint64_t &failed, std::string &json)
{
    std::vector<Step> steps;
    int misses_in_row = 0;
    json.push_back('[');
    for (const double rate : kHotLadder) {
        const PhaseResult r =
            runPhase(pool, in, rate, kHotStepSec, seed_of(), cursor, false);
        attempted += r.sent;
        failed += r.failed;
        const double p99 = stepP99(r);
        const bool backlog = r.depthAtEnd > r.sent / 20;
        const bool pass = p99 <= kHotSloUs && r.failed == 0 && !backlog;
        steps.push_back({rate, p99, pass});
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s{\"rate\": %.0f, \"p99_us\": %.1f, \"failed\": "
                      "%llu, \"depth_at_end\": %zu}",
                      steps.size() > 1 ? ", " : "", rate, p99,
                      static_cast<unsigned long long>(r.failed),
                      r.depthAtEnd);
        json += buf;
        misses_in_row = pass ? 0 : misses_in_row + 1;
        if (misses_in_row == 2 || backlog)
            break;
    }
    json += "]";
    return steps;
}

/**
 * qps_at_slo from several climbs. Each rate is judged by its quietest
 * climb (lowest p99): host contention only adds latency and comes in
 * 1-2 s bursts, so one climb a burst hit does not set the figure,
 * while a slowdown of the program shows in every climb. The result is
 * the highest passing rate, moved toward the next (failing) rate by
 * where the limit falls between their p99s in log space.
 */
double
qpsAtSlo(const std::vector<std::vector<Step>> &passes)
{
    std::vector<Step> steps;
    for (const std::vector<Step> &pass : passes)
        for (size_t i = 0; i < pass.size(); ++i) {
            if (steps.size() <= i)
                steps.push_back(pass[i]);
            else if (pass[i].p99 < steps[i].p99)
                steps[i] = pass[i];
        }
    size_t best = steps.size();
    for (size_t i = 0; i < steps.size(); ++i)
        if (steps[i].pass)
            best = i;
    if (best == steps.size())
        return steps[0].rate * kHotSloUs / steps[0].p99;
    if (best + 1 == steps.size())
        return steps[best].rate; // the highest rate reached passed
    const Step &lo = steps[best], &hi = steps[best + 1];
    const double f = std::log(kHotSloUs / lo.p99) /
        std::log(std::max(hi.p99, kHotSloUs * 1.0001) / lo.p99);
    return lo.rate + (hi.rate - lo.rate) * std::clamp(f, 0.0, 1.0);
}

struct HotRun
{
    double qpsAtSlo = 0;
    LatencySummary fixed;
    LatencySummary fixedWholeRun;
    double genLateP99Ms = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string ladder; ///< JSON array of passes, each of its steps
    std::vector<std::pair<size_t, std::vector<ScoredDoc>>> samples;
    double wallSec = 0;
};

HotRun
measureHot(LeafWorkerPool &pool, const HotInputs &in, double seconds,
           uint64_t seed)
{
    HotRun h;
    const double t0 = nowSec();
    size_t cursor = 0;
    uint64_t phase = 0;
    const std::function<uint64_t()> seed_of = [&] {
        return streamSeed(seed, 100 + phase++);
    };

    // Warm the cache to its steady state closed-loop, so the hit ratio
    // no longer climbs while the ladder and the fixed phase run.
    for (size_t i = 0; i < kHotWarmQueries; ++i) {
        const LeafWorkerPool::Admit a =
            pool.submit(in.queries[cursor++], /*block=*/true);
        ++h.attempted;
        if (a != LeafWorkerPool::Admit::Accepted &&
            a != LeafWorkerPool::Admit::CacheHit)
            ++h.failed;
    }
    pool.drain();

    std::vector<std::vector<Step>> passes;
    h.ladder.push_back('[');
    for (int p = 0; p < kHotLadderPasses; ++p) {
        if (p)
            h.ladder += ", ";
        passes.push_back(ladderPass(pool, in, seed_of, cursor, h.attempted,
                                    h.failed, h.ladder));
    }
    h.ladder += "]";
    h.qpsAtSlo = qpsAtSlo(passes);

    // The fixed rate for the rest of the budget.
    const double fixed_sec = std::max(3.0, seconds - (nowSec() - t0));
    PhaseResult f = runPhase(pool, in, kHotFixedRate, fixed_sec, seed_of(),
                             cursor, true);
    h.attempted += f.sent;
    h.failed += f.failed;
    h.fixed = f.lat.summary();
    h.fixedWholeRun = f.lat.wholeRun();
    std::sort(f.lateUs.begin(), f.lateUs.end());
    h.genLateP99Ms = f.lateUs.empty()
        ? 0
        : f.lateUs[static_cast<size_t>(0.99 * (f.lateUs.size() - 1))] *
            1e-3;
    h.samples = std::move(f.samples);
    h.wallSec = nowSec() - t0;
    return h;
}

} // namespace

// ----- live-index layers (serve-hot traced run) ----------------------

namespace {

constexpr uint32_t kLiveShards = 2;
constexpr uint32_t kLiveReplicas = 2;
constexpr uint32_t kLiveVocab = 20000;
constexpr uint32_t kLiveDocLen = 48;
constexpr uint32_t kLiveBaseDocs = 20000;
constexpr uint32_t kLiveCommitDocs = 1000; ///< base ingest batch
constexpr double kLiveDocRate = 2000;      ///< writer docs/s
constexpr double kLiveTickSec = 0.1;       ///< writer commit period
/** Most writes re-index an existing document, so the live document count
 *  (and with it the read cost) stays level through the run while
 *  tombstones and segments churn. */
constexpr double kLiveUpdateFrac = 0.9;
constexpr uint32_t kLiveClients = 2;
constexpr double kLiveSec = 6.0; ///< live pass of serve-hot's traced run

LiveConfig
liveConfig()
{
    LiveConfig lc;
    lc.codec = PostingCodec::kVarint;
    lc.mergeTriggerSegments = 8;
    lc.mergeFanIn = 4;
    return lc;
}

ClusterConfig
clusterConfig()
{
    ClusterConfig cc;
    cc.replicasPerShard = kLiveReplicas;
    cc.pool.numWorkers = 1;
    cc.pool.queueCapacity = 1024;
    cc.pool.cacheCapacity = 0;
    cc.deadlineNs = 1'000'000'000; // a miss here is a real failure
    cc.hedgeDelayNs = 0;
    cc.maxRetriesPerShard = 1;
    return cc;
}

struct LiveInputs
{
    CorpusGenerator docs;
    std::vector<std::vector<SearchRequest>> clientQueries;
};

LiveInputs
liveInputs(uint64_t seed)
{
    CorpusConfig cc;
    cc.vocabSize = kLiveVocab;
    cc.avgDocLen = kLiveDocLen;
    cc.seed = streamSeed(seed, 21);
    LiveInputs in{CorpusGenerator(cc), {}};
    for (uint32_t c = 0; c < kLiveClients; ++c) {
        QueryGenerator::Config qc;
        qc.vocabSize = kLiveVocab;
        qc.distinctQueries = 1u << 20;
        qc.maxTerms = 3;
        qc.seed = streamSeed(seed, 22 + c);
        QueryGenerator gen(qc);
        std::vector<SearchRequest> qs(1u << 16);
        for (SearchRequest &r : qs)
            r.query = gen.next();
        in.clientQueries.push_back(std::move(qs));
    }
    return in;
}

/** The live index shards plus the cluster serving them. */
struct LiveSystem
{
    std::vector<std::unique_ptr<LiveIndex>> shards;
    std::unique_ptr<ClusterServer> cluster;
    DocId nextDoc = 0;
};

std::unique_ptr<LiveSystem>
buildLive(const LiveInputs &in)
{
    auto sys = std::make_unique<LiveSystem>();
    for (uint32_t s = 0; s < kLiveShards; ++s)
        sys->shards.push_back(std::make_unique<LiveIndex>(liveConfig()));
    for (DocId d = 0; d < kLiveBaseDocs; ++d) {
        LiveIndex &idx = *sys->shards[d % kLiveShards];
        idx.add(d, in.docs.document(d).terms);
        if ((d + 1) % (kLiveCommitDocs * kLiveShards) == 0)
            for (auto &sh : sys->shards) {
                sh->commit();
                if (sh->mergePending())
                    sh->mergeOnce();
            }
    }
    std::vector<LiveIndex *> ptrs;
    for (auto &sh : sys->shards) {
        sh->commit();
        ptrs.push_back(sh.get());
    }
    sys->nextDoc = kLiveBaseDocs;
    sys->cluster = std::make_unique<ClusterServer>(ptrs, clusterConfig());
    return sys;
}

struct LiveRun
{
    uint64_t reads = 0;
    double qps = 0;
    LatencySummary lat;
    std::vector<double> lagMs;
    std::vector<double> segments;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t coverageMisses = 0;
    uint64_t versionRegressions = 0;
};

LiveRun
measureLive(LiveSystem &sys, const LiveInputs &in, double seconds,
            uint64_t seed)
{
    LiveRun run;
    std::atomic<bool> stop{false};
    const double t0 = nowSec();

    struct ClientState
    {
        Windowed lat{1.0};
        uint64_t reads = 0;
        uint64_t coverageMisses = 0;
        uint64_t versionRegressions = 0;
    };
    std::vector<ClientState> clients(kLiveClients);
    auto client = [&](uint32_t c) {
        ClientState &st = clients[c];
        std::vector<uint64_t> seen(kLiveShards, 0);
        const auto &qs = in.clientQueries[c];
        for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
            const double q0 = nowSec();
            ClusterResult r;
            {
                ScopedSpan span("serve.handle");
                r = sys.cluster->handle(qs[i % qs.size()]);
            }
            st.lat.add(q0 - t0, (nowSec() - q0) * 1e6);
            ++st.reads;
            const MergedPage &p = r.page;
            if (p.shardsAnswered != p.shardsTotal ||
                p.shardsTotal != kLiveShards)
                ++st.coverageMisses;
            for (size_t s = 0; s < p.shardVersions.size() && s < seen.size();
                 ++s) {
                if (p.shardVersions[s] < seen[s])
                    ++st.versionRegressions;
                seen[s] = std::max(seen[s], p.shardVersions[s]);
            }
        }
    };

    // The writer: fixed document rate, committed every tick, then one
    // merge step per shard and a rollout to every replica.
    Rng rng(seed);
    const uint32_t per_tick =
        static_cast<uint32_t>(kLiveDocRate * kLiveTickSec);
    uint64_t bad_rollouts = 0, commits = 0;
    auto writer = [&] {
        uint64_t tick = 0;
        const uint64_t start = nowNs();
        while (!stop.load(std::memory_order_relaxed)) {
            for (uint32_t k = 0; k < per_tick; ++k) {
                DocId d;
                if (rng.nextBool(kLiveUpdateFrac))
                    d = static_cast<DocId>(rng.nextRange(sys.nextDoc));
                else
                    d = sys.nextDoc++;
                LiveIndex &idx = *sys.shards[d % kLiveShards];
                const std::vector<TermId> terms = in.docs.document(d).terms;
                ScopedSpan span("live.add");
                idx.add(d, terms);
            }
            const double c0 = nowSec();
            for (auto &sh : sys.shards) {
                ScopedSpan span("live.commit");
                sh->commit();
            }
            for (auto &sh : sys.shards)
                if (sh->mergePending()) {
                    ScopedSpan span("live.merge");
                    sh->mergeOnce();
                }
            RolloutResult rr;
            {
                ScopedSpan span("serve.rollout");
                rr = sys.cluster->rolloutAll();
            }
            run.lagMs.push_back((nowSec() - c0) * 1e3);
            ++commits;
            if (rr.replicasUpdated != kLiveShards * kLiveReplicas)
                ++bad_rollouts;
            double segs = 0;
            for (auto &sh : sys.shards)
                segs += sh->stats().segments;
            run.segments.push_back(segs / kLiveShards);
            ++tick;
            const uint64_t due =
                start + static_cast<uint64_t>(tick * kLiveTickSec * 1e9);
            while (nowNs() < due && !stop.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };

    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kLiveClients; ++c)
        threads.emplace_back(client, c);
    threads.emplace_back(writer);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread &t : threads)
        t.join();

    Windowed all{1.0};
    for (const ClientState &st : clients) {
        run.reads += st.reads;
        run.coverageMisses += st.coverageMisses;
        run.versionRegressions += st.versionRegressions;
        all.merge(st.lat);
    }
    run.qps = all.rate();
    run.lat = all.summary();
    run.attempted = run.reads + commits;
    run.failed = run.coverageMisses + run.versionRegressions + bad_rollouts;
    return run;
}

} // namespace

namespace {

/**
 * The live-index layers, measured in serve-hot's traced run: build the
 * live system from @p seed, run the writer and the two readers for
 * @p seconds with spans on, check coverage, version order and
 * rollouts, and report the live and cluster per-layer metrics.
 */
void
measureLiveLayers(Outcome &out, uint64_t seed, double seconds)
{
    const LiveInputs in = liveInputs(seed);
    const std::unique_ptr<LiveSystem> sys = buildLive(in);
    const LiveRun run = measureLive(*sys, in, seconds, streamSeed(seed, 30));
    out.attempted += run.attempted;
    out.failed += run.failed;
    out.check(run.coverageMisses == 0, "live reads cover every shard");
    out.check(run.versionRegressions == 0,
              "live served version never goes backwards");
    out.note("live_qps", run.qps);
    out.noteLatency("live_read_us", run.lat);
    out.noteLatency("live_visible_lag_ms", summarize(run.lagMs));

    const ClusterSnapshot snap = sys->cluster->snapshot();
    out.set("serve.cluster_gather_us",
            spanMean("serve.handle", 1e-3) - snap.shardNs.mean() * 1e-3);
    out.set("serve.cluster_rollout_ms", spanMean("serve.rollout", 1e-6));
    out.set("serve.cluster_hedges", static_cast<double>(snap.hedgesIssued));
    out.set("serve.cluster_retries",
            static_cast<double>(snap.retriesIssued));
    out.set("serve.cluster_degraded", static_cast<double>(snap.degraded));
    out.set("live.add_us", spanMean("live.add", 1e-3));
    out.set("live.commit_ms", spanMean("live.commit", 1e-6));
    out.set("live.merge_ms", spanMean("live.merge", 1e-6));
    out.set("live.segments_mean", mean(run.segments));
    out.set("live.visible_lag_ms", median(run.lagMs));

    // Single-thread replay of client 0's query stream on each shard's
    // final snapshot: the executor over many varint segments.
    for (auto &sh : sys->shards) {
        SnapshotSearcher searcher(0);
        const auto snapshot = sh->snapshot();
        for (uint64_t i = 0; i < 2000; ++i) {
            ScopedSpan span("search.snapshot_search");
            searcher.search(*snapshot, in.clientQueries[0][i]);
        }
    }
    out.noteLatency("live_exec_us",
                    summarize(spanUs("search.snapshot_search")));
}

} // namespace

Outcome
runServeHot(const Args &args)
{
    Outcome out;
    tracer().setEnabled(false);
    std::vector<double> setup_sec;
    HotInputs in;
    for (int i = 0; i < kSetups; ++i) {
        in = HotInputs{};
        const double t0 = nowSec();
        in = buildHot(args.seed);
        setup_sec.push_back(nowSec() - t0);
    }

    const double untraced_secs = args.trace ? args.seconds / 2 : args.seconds;
    HotRun run;
    int generator_cpu = -1;
    {
        ServeCpus cpus;
        LeafWorkerPool pool(*in.index, hotPoolConfig());
        cpus.becomeGenerator();
        generator_cpu = cpus.generatorCpu();
        run = measureHot(pool, in, untraced_secs, args.seed);
    }
    out.attempted += run.attempted;
    out.failed += run.failed;
    if (run.failed)
        std::printf("serve-hot: %llu of %llu requests failed\n",
                    static_cast<unsigned long long>(run.failed),
                    static_cast<unsigned long long>(run.attempted));

    // Sampled results against the sequential reference executor.
    {
        NullTouchSink sink;
        QueryExecutor ref(*in.index, 0, &sink);
        for (const auto &[qi, docs] : run.samples) {
            SearchRequest req = in.queries[qi];
            req.algo = ExecAlgo::kSequential;
            out.check(sameDocs(ref.execute(req).docs, docs),
                      "serve-hot top-k matches kSequential");
        }
    }
    out.note("checked_samples", static_cast<double>(run.samples.size()));
    out.note("slo_p99_us", kHotSloUs);
    out.note("fixed_rate_qps", kHotFixedRate);
    out.note("qps_at_slo", run.qpsAtSlo);
    out.noteLatency("fixed_rate_us", run.fixed);
    out.noteLatency("fixed_rate_whole_run_us", run.fixedWholeRun);
    out.note("gen_late_p99_ms", run.genLateP99Ms);
    out.note("generator_cpu", generator_cpu);
    out.report["ladder"] = run.ladder;

    if (!args.trace) {
        out.set("setup_s", quantile(setup_sec, 0.25));
        out.set("throughput_per_s", run.qpsAtSlo);
        out.set("p50_us", run.fixed.p50);
        out.set("tail_us", run.fixed.tail);
        return out;
    }

    // Traced half on a fresh pool, same inputs.
    tracer().setEnabled(true);
    HotRun traced;
    ServeSnapshot snap;
    {
        ServeCpus cpus;
        LeafWorkerPool pool(*in.index, hotPoolConfig());
        cpus.becomeGenerator();
        traced = measureHot(pool, in, args.seconds / 2, args.seed);
        snap = pool.snapshot();
    }
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.set("tracing.overhead_frac", traced.fixed.p50 / run.fixed.p50 - 1);
    out.set("serve.cache_hit_ratio",
            snap.cacheLookups ? static_cast<double>(snap.cacheHits) /
                    static_cast<double>(snap.cacheLookups)
                              : 0.0);
    out.set("serve.cache_hit_us", spanMean("serve.submit", 1, 1e-3));
    out.set("serve.submit_us", spanMean("serve.submit", 0, 1e-3));
    setPoolLayer(out, snap, kHotWorkers, traced.wallSec);
    out.set("serve.gen_late_ms", traced.genLateP99Ms);

    // Single-thread replay of the query stream through the leaf.
    LeafServer::Config lc;
    lc.numThreads = 1;
    LeafServer leaf(*in.index, lc);
    ExecStats stats;
    const uint64_t n = 4000;
    for (uint64_t i = 0; i < n; ++i) {
        SearchResponse resp;
        {
            ScopedSpan span("search.serve");
            resp = leaf.serve(0, in.queries[i]);
        }
        stats.merge(resp.stats);
    }
    setExecLayer(out, stats, n);

    measureLiveLayers(out, args.seed, kLiveSec);
    return out;
}

} // namespace perfbench
