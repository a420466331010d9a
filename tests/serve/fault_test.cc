/**
 * Fault-injection suite for the sharded serving stack, in two parts.
 *
 * 1. Named regression schedules: SimClock + FaultPlan force the rare
 *    interleavings that real-time tests only hit by luck -- a hedge
 *    winning while the primary hangs, the primary winning after the
 *    hedge already fired, both attempts expiring at the deadline,
 *    crashed shards failing fast, ejection + probation re-admission.
 *    These use zero sleeps: the only real-time waits are bounded
 *    handshakes (SimClock::awaitSleepers) and thread joins.
 *
 * 2. Chaos properties: seeded random FaultPlans x query streams under
 *    the real clock, asserting the invariants that must hold no
 *    matter what the plan does -- every query resolves exactly once
 *    with a valid (possibly degraded) page, coverage accounting
 *    balances, hedges are never double-counted, and every pool
 *    snapshot stays consistent. Seeds come from WSEARCH_CHAOS_SEED
 *    when set (CI echoes the seed for reproduction).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "chaos_seed.hh"
#include "search/corpus.hh"
#include "search/root.hh"
#include "search/sharding.hh"
#include "serve/cluster.hh"
#include "serve/clock.hh"
#include "serve/fault.hh"
#include "util/rng.hh"

namespace wsearch {
namespace {

constexpr uint64_t kMs = 1'000'000;

CorpusConfig
testCorpusConfig()
{
    CorpusConfig cc;
    cc.numDocs = 900;
    cc.vocabSize = 1500;
    cc.avgDocLen = 60;
    return cc;
}

Query
testQuery(uint64_t id)
{
    Query q;
    q.id = id;
    q.terms = {static_cast<TermId>(id % 16),
               static_cast<TermId>((id * 7 + 3) % 64)};
    q.conjunctive = false;
    q.topK = 10;
    return q;
}

SearchRequest
asRequest(const Query &q)
{
    SearchRequest req;
    req.query = q;
    return req;
}

/**
 * Releases the SimClock before an earlier-declared ClusterServer is
 * destroyed. Declare AFTER the cluster: a failed ASSERT unwinds
 * through this first, unparking any worker stuck in a virtual sleep
 * so the cluster's shutdown/join cannot deadlock.
 */
struct SimClockReleaser
{
    explicit SimClockReleaser(SimClock &c) : clock(c) {}
    ~SimClockReleaser() { clock.release(); }
    SimClock &clock;
};

/** Result page is internally valid: sorted best-first, no duplicate
 *  doc ids, coverage fields within range. */
void
expectValidPage(const MergedPage &page, uint32_t shards_total)
{
    EXPECT_EQ(page.shardsTotal, shards_total);
    EXPECT_LE(page.shardsAnswered, page.shardsTotal);
    EXPECT_LE(page.shardsUnavailable,
              page.shardsTotal - page.shardsAnswered);
    std::set<DocId> seen;
    for (size_t i = 0; i < page.docs.size(); ++i) {
        EXPECT_TRUE(seen.insert(page.docs[i].doc).second)
            << "duplicate doc " << page.docs[i].doc;
        if (i > 0) {
            // Best-first: docs[i] must not outrank docs[i-1].
            EXPECT_FALSE(page.docs[i - 1] < page.docs[i])
                << "rank " << i;
        }
    }
}

// -----------------------------------------------------------------
// Named regression schedules (SimClock, zero sleeps)
// -----------------------------------------------------------------

TEST(FaultSchedule, HedgeWinsWhilePrimaryHangs)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    SimClock sim;
    FaultPlan plan;
    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 100 * kMs;
    cc.hedgeDelayNs = 1 * kMs;
    cc.clock = &sim;
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);
    SimClockReleaser releaser(sim);

    const Query q = testQuery(42);
    const uint32_t primary = cluster.plannedReplica(q.id, 0);
    const uint32_t backup = 1 - primary;
    FaultSpec &spec = plan.replicaSpec(0, primary);
    spec.hangProb = 1.0;
    spec.hangNs = 10'000 * kMs; // far past the deadline

    const uint64_t t0 = sim.now();
    ClusterResult res;
    std::thread caller([&] { res = cluster.handle(asRequest(q)); });

    // The primary's worker is now stuck in the injected hang.
    ASSERT_TRUE(sim.awaitSleepers(1));
    // Reach the hedge delay: the backup replica answers immediately.
    sim.advanceTo(t0 + cc.hedgeDelayNs);
    caller.join();

    EXPECT_EQ(res.page.shardsAnswered, 1u);
    EXPECT_FALSE(res.page.degraded());
    EXPECT_FALSE(res.page.docs.empty());
    EXPECT_EQ(res.hedges, 1u);

    // Unpark the hung primary: it must observe the winner's cancel
    // flag and drop without executing.
    sim.advanceTo(t0 + spec.hangNs + 1);
    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.hedgesIssued, 1u);
    EXPECT_EQ(snap.hedgeWins, 1u);
    EXPECT_EQ(cluster.replicaPool(0, primary).snapshot().cancelled, 1u);
    EXPECT_EQ(cluster.replicaPool(0, backup).snapshot().executed(), 1u);
    for (const ShardSnapshot &ss : snap.shards)
        EXPECT_TRUE(ss.pool.consistent());
}

TEST(FaultSchedule, PrimaryWinsAfterHedgeFired)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    SimClock sim;
    FaultPlan plan;
    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 100 * kMs;
    cc.hedgeDelayNs = 1 * kMs;
    cc.clock = &sim;
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);
    SimClockReleaser releaser(sim);

    const Query q = testQuery(43);
    const uint32_t primary = cluster.plannedReplica(q.id, 0);
    const uint32_t backup = 1 - primary;
    // Primary is slow (5 ms) but beats the even-slower backup (50 ms):
    // the hedge fires at 1 ms yet loses the race.
    FaultSpec &pspec = plan.replicaSpec(0, primary);
    pspec.delayProb = 1.0;
    pspec.delayMinNs = pspec.delayMaxNs = 5 * kMs;
    FaultSpec &bspec = plan.replicaSpec(0, backup);
    bspec.delayProb = 1.0;
    bspec.delayMinNs = bspec.delayMaxNs = 50 * kMs;

    const uint64_t t0 = sim.now();
    ClusterResult res;
    std::thread caller([&] { res = cluster.handle(asRequest(q)); });

    ASSERT_TRUE(sim.awaitSleepers(1)); // primary in its delay
    sim.advanceTo(t0 + cc.hedgeDelayNs);
    ASSERT_TRUE(sim.awaitSleepers(2)); // hedge issued, also delayed
    sim.advanceTo(t0 + 5 * kMs);       // primary wakes first, wins
    caller.join();

    EXPECT_EQ(res.page.shardsAnswered, 1u);
    EXPECT_EQ(res.hedges, 1u);

    sim.advanceTo(t0 + 60 * kMs); // loser wakes, sees cancel
    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.hedgesIssued, 1u);
    EXPECT_EQ(snap.hedgeWins, 0u); // the primary's answer counted
    EXPECT_EQ(cluster.replicaPool(0, primary).snapshot().executed(),
              1u);
    EXPECT_EQ(cluster.replicaPool(0, backup).snapshot().cancelled, 1u);
    EXPECT_EQ(cluster.replicaPool(0, backup).snapshot().executed(), 0u);
    for (const ShardSnapshot &ss : snap.shards)
        EXPECT_TRUE(ss.pool.consistent());
}

TEST(FaultSchedule, BothExpireAtDeadline)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    SimClock sim;
    FaultPlan plan;
    // Every replica hangs far past the deadline: the gather must give
    // up at the deadline with a valid empty page, and both parked
    // attempts must later resolve as expired -- not execute.
    plan.defaultSpec().hangProb = 1.0;
    plan.defaultSpec().hangNs = 500 * kMs;
    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 20 * kMs;
    cc.hedgeDelayNs = 1 * kMs;
    cc.clock = &sim;
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);
    SimClockReleaser releaser(sim);

    const uint64_t t0 = sim.now();
    ClusterResult res;
    std::thread caller(
        [&] { res = cluster.handle(asRequest(testQuery(44))); });

    ASSERT_TRUE(sim.awaitSleepers(1)); // primary hung
    sim.advanceTo(t0 + cc.hedgeDelayNs);
    ASSERT_TRUE(sim.awaitSleepers(2)); // hedge hung too
    sim.advanceTo(t0 + cc.deadlineNs + 1);
    caller.join();

    EXPECT_EQ(res.page.shardsAnswered, 0u);
    EXPECT_TRUE(res.page.docs.empty());
    EXPECT_TRUE(res.page.degraded());
    EXPECT_DOUBLE_EQ(res.page.coverage(), 0.0);
    // Silence is not proof of death: the shard is missed, not
    // unavailable.
    EXPECT_EQ(res.page.shardsUnavailable, 0u);
    EXPECT_EQ(res.hedges, 1u);

    sim.advanceTo(t0 + 600 * kMs);
    cluster.drainAll();
    uint64_t expired = 0, executed = 0;
    const ClusterSnapshot snap = cluster.snapshot();
    for (const ShardSnapshot &ss : snap.shards) {
        EXPECT_TRUE(ss.pool.consistent());
        expired += ss.pool.expired;
        executed += ss.pool.executed();
    }
    EXPECT_EQ(expired, 2u);
    EXPECT_EQ(executed, 0u);
}

TEST(FaultSchedule, CrashedShardFailsFastWithCoverageLoss)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 2);

    FaultPlan plan;
    // Shard 1 is fully down: both replicas refuse everything.
    plan.replicaSpec(1, 0).crashAtNs = 1;
    plan.replicaSpec(1, 1).crashAtNs = 1;
    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 5'000 * kMs; // generous: fail-fast must not wait
    cc.maxRetriesPerShard = 1;
    cc.retryBackoffNs = 200'000;
    cc.probationNs = 10'000 * kMs;
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);

    for (uint64_t i = 0; i < 5; ++i) {
        const ClusterResult res =
            cluster.handle(asRequest(testQuery(100 + i)));
        expectValidPage(res.page, 2);
        EXPECT_EQ(res.page.shardsAnswered, 1u) << "query " << i;
        EXPECT_EQ(res.page.shardsUnavailable, 1u) << "query " << i;
        EXPECT_TRUE(res.page.degraded());
        // Provably-dead shards must not burn the deadline.
        EXPECT_LT(res.latencyNs, 1'000 * kMs) << "query " << i;
    }
    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.queries, 5u);
    EXPECT_EQ(snap.shardsUnavailable, 5u);
    EXPECT_EQ(snap.shards[1].unavailable, 5u);
    EXPECT_EQ(snap.shards[1].answered, 0u);
    EXPECT_EQ(snap.shards[0].answered, 5u);
    EXPECT_GT(snap.shards[1].failures, 0u);
    // After ejectAfterFailures consecutive refusals per replica, the
    // cluster stops even trying: both replicas sit ejected.
    EXPECT_EQ(snap.shards[1].replicasEjected, 2u);
    for (const ShardSnapshot &ss : snap.shards)
        EXPECT_TRUE(ss.pool.consistent());
    EXPECT_GT(snap.shards[1].pool.refused, 0u);
    EXPECT_EQ(snap.shards[1].pool.executed(), 0u);
}

TEST(FaultSchedule, EjectionThenProbationReadmitsRecoveredReplica)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    SimClock sim;
    FaultPlan plan;
    ClusterConfig cc;
    cc.replicasPerShard = 1;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 1'000 * kMs;
    cc.maxRetriesPerShard = 0; // one failure settles the shard
    cc.ejectAfterFailures = 1;
    cc.probationNs = 5 * kMs;
    cc.clock = &sim;
    cc.faults = &plan;
    const uint64_t t0 = sim.now();
    // The only replica is crashed at start and recovers at t0+10ms.
    FaultSpec &spec = plan.replicaSpec(0, 0);
    spec.crashAtNs = 1;
    spec.recoverAtNs = t0 + 10 * kMs;
    ClusterServer cluster(si.shardPtrs(), cc);
    SimClockReleaser releaser(sim);

    // Query 1: refused at admission -> shard unavailable, replica
    // ejected for probationNs.
    const ClusterResult r1 =
        cluster.handle(asRequest(testQuery(201)));
    EXPECT_EQ(r1.page.shardsAnswered, 0u);
    EXPECT_EQ(r1.page.shardsUnavailable, 1u);
    EXPECT_EQ(cluster.replicaPool(0, 0).snapshot().refused, 1u);

    // Query 2 while ejected: fails fast WITHOUT contacting the
    // replica (no new submit reaches the pool).
    const ClusterResult r2 =
        cluster.handle(asRequest(testQuery(202)));
    EXPECT_EQ(r2.page.shardsUnavailable, 1u);
    EXPECT_EQ(cluster.replicaPool(0, 0).snapshot().submitted, 1u);
    EXPECT_EQ(cluster.snapshot().shards[0].replicasEjected, 1u);

    // Past both the probation window and the crash recovery: the next
    // query is the probe, and it succeeds.
    sim.advanceTo(t0 + 20 * kMs);
    const ClusterResult r3 =
        cluster.handle(asRequest(testQuery(203)));
    EXPECT_EQ(r3.page.shardsAnswered, 1u);
    EXPECT_FALSE(r3.page.degraded());

    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.shardsUnavailable, 2u);
    EXPECT_EQ(snap.shards[0].unavailable, 2u);
    EXPECT_EQ(snap.shards[0].answered, 1u);
    EXPECT_EQ(snap.shards[0].replicasEjected, 0u); // probe re-admitted
    EXPECT_TRUE(snap.shards[0].pool.consistent());
}

TEST(FaultSchedule, DroppedCompletionDegradesWithoutWedging)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    SimClock sim;
    FaultPlan plan;
    plan.defaultSpec().dropProb = 1.0; // every completion is lost
    ClusterConfig cc;
    cc.replicasPerShard = 1;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 10 * kMs;
    cc.clock = &sim;
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);
    SimClockReleaser releaser(sim);

    const uint64_t t0 = sim.now();
    ClusterResult res;
    std::thread caller(
        [&] { res = cluster.handle(asRequest(testQuery(301))); });

    // The worker executes and silently drops the reply; drain() must
    // still complete -- lost completions never wedge the pool.
    while (cluster.replicaPool(0, 0).snapshot().submitted == 0)
        std::this_thread::yield();
    cluster.drainAll();
    const ServeSnapshot pool = cluster.replicaPool(0, 0).snapshot();
    EXPECT_EQ(pool.faultDropped, 1u);
    EXPECT_EQ(pool.completed, 1u);
    EXPECT_TRUE(pool.consistent());

    // The gather hears nothing and must give up at the deadline.
    sim.advanceTo(t0 + cc.deadlineNs + 1);
    caller.join();
    EXPECT_EQ(res.page.shardsAnswered, 0u);
    EXPECT_TRUE(res.page.degraded());
    // Silence is indistinguishable from slowness: missed, not dead.
    EXPECT_EQ(res.page.shardsUnavailable, 0u);
}

TEST(FaultSchedule, CorruptedReplyTruncatesButStaysValid)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    FaultPlan plan;
    plan.defaultSpec().corruptProb = 1.0;
    ClusterConfig cc;
    cc.replicasPerShard = 1;
    cc.pool.numWorkers = 1;
    cc.pool.cacheCapacity = 8;
    cc.deadlineNs = 0; // wait for the shard
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);

    const Query q = testQuery(401);
    // Reference: the same shard served without faults.
    LeafServer reference(si.shard(0), si.leafConfig(0));
    const std::vector<ScoredDoc> full =
        reference.serve(0, asRequest(q)).docs;
    ASSERT_GE(full.size(), 2u);
    std::set<DocId> full_docs;
    for (const ScoredDoc &sd : full)
        full_docs.insert(sd.doc);

    for (int rep = 0; rep < 2; ++rep) {
        const ClusterResult res = cluster.handle(asRequest(q));
        expectValidPage(res.page, 1);
        // The root cannot detect the truncation (coverage says the
        // shard answered); the page is smaller but well-formed, and
        // every doc in it is a genuine result.
        EXPECT_EQ(res.page.shardsAnswered, 1u);
        EXPECT_LT(res.page.docs.size(), full.size());
        for (const ScoredDoc &sd : res.page.docs)
            EXPECT_TRUE(full_docs.count(sd.doc)) << "doc " << sd.doc;
    }
    cluster.drainAll();
    const ServeSnapshot pool = cluster.replicaPool(0, 0).snapshot();
    EXPECT_EQ(pool.faultCorrupted, 2u);
    // Corrupted pages must never be cached: the second identical
    // query re-executed instead of hitting the cache tier.
    EXPECT_EQ(pool.cacheHits, 0u);
    EXPECT_TRUE(pool.consistent());
}

TEST(FaultSchedule, RetryRecoversFromTransientFailure)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 1);

    FaultPlan plan;
    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 5'000 * kMs;
    cc.maxRetriesPerShard = 1;
    cc.retryBackoffNs = 100'000;
    cc.faults = &plan;
    ClusterServer cluster(si.shardPtrs(), cc);

    const Query q = testQuery(501);
    // Only the primary fails; the retry must land on the other
    // replica and answer.
    const uint32_t primary = cluster.plannedReplica(q.id, 0);
    plan.replicaSpec(0, primary).failProb = 1.0;

    const ClusterResult res = cluster.handle(asRequest(q));
    EXPECT_EQ(res.page.shardsAnswered, 1u);
    EXPECT_FALSE(res.page.degraded());
    EXPECT_EQ(res.retries, 1u);
    EXPECT_FALSE(res.page.docs.empty());

    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.retriesIssued, 1u);
    EXPECT_EQ(snap.shardsUnavailable, 0u);
    EXPECT_EQ(
        cluster.replicaPool(0, primary).snapshot().faultFailed, 1u);
    EXPECT_EQ(
        cluster.replicaPool(0, 1 - primary).snapshot().executed(), 1u);
    for (const ShardSnapshot &ss : snap.shards)
        EXPECT_TRUE(ss.pool.consistent());
}

// -----------------------------------------------------------------
// Worker-pool edge: deadline exactly at pop
// -----------------------------------------------------------------

TEST(FaultSchedule, DeadlineExactlyAtPopStillExecutes)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const MaterializedIndex index(corpus);

    SimClock sim;
    LeafWorkerPool::Config pc;
    pc.numWorkers = 1;
    pc.clock = &sim;
    LeafWorkerPool pool(index, pc);
    SimClockReleaser releaser(sim);

    // Expiry is strict (start > deadline): a deadline equal to the
    // pop time still executes in full...
    struct Outcome
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        ServeOutcome outcome = ServeOutcome::Ok;
        size_t docs = 0;
    };
    const auto submit_and_wait = [&](uint64_t deadline_ns,
                                     uint64_t qid) {
        Outcome out;
        SearchRequest req;
        req.query = testQuery(qid);
        req.deadlineNs = deadline_ns;
        pool.submitAsync(
            req, /*block=*/true,
            [&out](std::vector<ScoredDoc> &&docs, ServeOutcome oc,
                   uint64_t /*index_version*/) {
                std::lock_guard<std::mutex> lk(out.mu);
                out.done = true;
                out.outcome = oc;
                out.docs = docs.size();
                out.cv.notify_all();
            });
        std::unique_lock<std::mutex> lk(out.mu);
        out.cv.wait(lk, [&] { return out.done; });
        return std::make_pair(out.outcome, out.docs);
    };

    const auto at = submit_and_wait(sim.now(), 601);
    EXPECT_EQ(at.first, ServeOutcome::Ok);
    EXPECT_GT(at.second, 0u);

    // ...while one nanosecond earlier is already expired at pop.
    const auto past = submit_and_wait(sim.now() - 1, 602);
    EXPECT_EQ(past.first, ServeOutcome::Expired);
    EXPECT_EQ(past.second, 0u);

    pool.drain();
    const ServeSnapshot snap = pool.snapshot();
    EXPECT_EQ(snap.executed(), 1u);
    EXPECT_EQ(snap.expired, 1u);
    EXPECT_TRUE(snap.consistent());
}

// -----------------------------------------------------------------
// Chaos properties (real clock, seeded random plans)
// -----------------------------------------------------------------

/** Randomize a FaultSpec from @p rng: mild pain, all fault types. */
FaultSpec
randomSpec(Rng &rng)
{
    FaultSpec s;
    s.delayProb = 0.10 * rng.nextDouble();
    s.delayMinNs = 50'000;
    s.delayMaxNs = 50'000 + rng.nextRange(1'000'000);
    s.hangProb = 0.02 * rng.nextDouble();
    s.hangNs = 40 * kMs; // > deadline, bounded for teardown
    s.failProb = 0.08 * rng.nextDouble();
    s.dropProb = 0.03 * rng.nextDouble();
    s.corruptProb = 0.05 * rng.nextDouble();
    if (rng.nextRange(8) == 0)
        s.crashAtNs = 1; // permanently dead replica
    return s;
}

void
runChaosRound(uint64_t seed, const ShardedIndex &si)
{
    SCOPED_TRACE(::testing::Message() << "chaos seed 0x" << std::hex
                                      << seed);
    Rng rng(seed);
    const uint32_t num_shards = si.numShards();

    FaultPlan plan(seed);
    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1 + static_cast<uint32_t>(rng.nextRange(2));
    cc.pool.queueCapacity = 64;
    cc.deadlineNs = 8 * kMs;
    cc.hedgeDelayNs = 500'000;
    cc.maxHedgesPerQuery =
        1 + static_cast<uint32_t>(rng.nextRange(2));
    cc.maxRetriesPerShard = static_cast<uint32_t>(rng.nextRange(3));
    cc.retryBackoffNs = 100'000;
    cc.ejectAfterFailures =
        2 + static_cast<uint32_t>(rng.nextRange(3));
    cc.probationNs =
        static_cast<uint64_t>(1 + rng.nextRange(20)) * kMs;
    cc.faults = &plan;
    for (uint32_t s = 0; s < num_shards; ++s)
        for (uint32_t r = 0; r < cc.replicasPerShard; ++r)
            plan.replicaSpec(s, r) = randomSpec(rng);

    ClusterServer cluster(si.shardPtrs(), cc);

    constexpr uint32_t kClients = 3;
    constexpr uint32_t kQueriesPerClient = 30;
    std::vector<std::thread> clients;
    std::mutex res_mu;
    std::vector<ClusterResult> results;
    for (uint32_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (uint32_t i = 0; i < kQueriesPerClient; ++i) {
                const uint64_t qid =
                    seed ^ (c * 1000 + i); // distinct per client
                ClusterResult res =
                    cluster.handle(asRequest(testQuery(qid)));
                std::lock_guard<std::mutex> lk(res_mu);
                results.push_back(std::move(res));
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    cluster.drainAll();

    // Every submitted query resolved exactly once, with a valid page.
    ASSERT_EQ(results.size(), kClients * kQueriesPerClient);
    uint64_t hedges = 0, retries = 0;
    for (const ClusterResult &res : results) {
        expectValidPage(res.page, num_shards);
        hedges += res.hedges;
        retries += res.retries;
    }

    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.queries, results.size());
    EXPECT_EQ(snap.queryNs.count(), snap.queries);
    // Coverage accounting balances: every (query, shard) pair is
    // answered or missed, never both, and unavailable is a subset of
    // missed.
    EXPECT_EQ(snap.shardAnswers + snap.shardMisses,
              snap.queries * num_shards);
    EXPECT_LE(snap.shardsUnavailable, snap.shardMisses);
    // No hedge double-count: wins are a subset of issues, and both
    // tallies agree between cluster and shards.
    EXPECT_LE(snap.hedgeWins, snap.hedgesIssued);
    EXPECT_EQ(snap.hedgesIssued, hedges);
    EXPECT_EQ(snap.retriesIssued, retries);
    uint64_t shard_hedges = 0, shard_answers = 0, shard_misses = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
        const ShardSnapshot &ss = snap.shards[s];
        EXPECT_TRUE(ss.pool.consistent())
            << "shard " << s << " pool counters";
        EXPECT_EQ(ss.answered + ss.missed, snap.queries)
            << "shard " << s;
        EXPECT_LE(ss.unavailable, ss.missed) << "shard " << s;
        EXPECT_EQ(ss.latencyNs.count(), ss.answered) << "shard " << s;
        shard_hedges += ss.hedges;
        shard_answers += ss.answered;
        shard_misses += ss.missed;
    }
    EXPECT_EQ(shard_hedges, snap.hedgesIssued);
    EXPECT_EQ(shard_answers, snap.shardAnswers);
    EXPECT_EQ(shard_misses, snap.shardMisses);
}

TEST(Chaos, SeedParsesDecimalAndHexOnly)
{
    uint64_t v = 7;
    EXPECT_TRUE(parseChaosSeed("0x5eedc4a05", v));
    EXPECT_EQ(v, 0x5eedc4a05ull);
    EXPECT_TRUE(parseChaosSeed("0XFFFFFFFFFFFFFFFF", v));
    EXPECT_EQ(v, ~0ull);
    EXPECT_TRUE(parseChaosSeed("1234", v));
    EXPECT_EQ(v, 1234u);
    for (const char *bad : {"", "0x", "0x5eedc4a05 ", "5eed", "-1", "0x-1",
                            "0x10000000000000000", "18446744073709551616",
                            "012abc"}) {
        EXPECT_FALSE(parseChaosSeed(bad, v)) << bad;
        EXPECT_EQ(v, 1234u) << bad;
    }
}

TEST(Chaos, SeededRandomPlansKeepInvariants)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 3);
    const uint64_t base = chaosBaseSeed();
    for (uint64_t round = 0; round < 3; ++round)
        runChaosRound(mix64(base + round), si);
}

} // namespace
} // namespace wsearch
