/**
 * Serving-layer tests for the live index: LeafServer's live mode
 * (snapshot capture, version stamping, adoption rules), the live
 * LeafWorkerPool (completion versions, ServeSnapshot version range),
 * the background MergeWorker, and ClusterServer's rolling rollout
 * (draining, corrupted-handoff rejection, per-shard versions on the
 * merged page). Runs under the "serve" label so TSan covers the
 * snapshot swaps racing live traffic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "search/corpus.hh"
#include "search/index.hh"
#include "search/live/live_index.hh"
#include "search/live/merge_worker.hh"
#include "serve/cluster.hh"
#include "serve/worker_pool.hh"

namespace wsearch {
namespace {

constexpr TermId kAllDocs = 7; // marker term present in every doc

SearchRequest
probe(uint32_t topk = 4096)
{
    SearchRequest req;
    req.query.id = 42;
    req.query.terms = {kAllDocs};
    req.query.conjunctive = false;
    req.query.topK = topk;
    return req;
}

std::set<DocId>
docsOf(const std::vector<ScoredDoc> &docs)
{
    std::set<DocId> out;
    for (const ScoredDoc &d : docs)
        out.insert(d.doc);
    return out;
}

/** Add docs [first, first+n) with the marker term and commit. */
uint64_t
ingest(LiveIndex &idx, DocId first, uint32_t n)
{
    for (DocId d = first; d < first + n; ++d)
        idx.add(d, {kAllDocs, static_cast<TermId>(100 + d % 3)});
    return idx.commit();
}

TEST(LiveLeaf, ServesSnapshotAndStampsVersion)
{
    LiveIndex idx;
    const uint64_t v = ingest(idx, 1, 5);

    LeafServer::Config lc;
    lc.numThreads = 2;
    LeafServer leaf(idx.snapshot(), lc);
    EXPECT_TRUE(leaf.live());
    EXPECT_EQ(leaf.currentVersion(), v);

    const SearchResponse r = leaf.serve(0, probe());
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.indexVersion, v);
    EXPECT_EQ(docsOf(r.docs), (std::set<DocId>{1, 2, 3, 4, 5}));
    EXPECT_EQ(leaf.queriesServed(), 1u);
    EXPECT_GT(leaf.footprint().heapBytes(), 0u);
}

TEST(LiveLeaf, AdoptionRules)
{
    LiveIndex idx;
    const uint64_t v1 = ingest(idx, 1, 3);
    LeafServer::Config lc;
    LeafServer leaf(idx.snapshot(), lc);
    const auto snap_v1 = idx.snapshot();

    // Newer version: adopted, traffic switches over.
    const uint64_t v2 = ingest(idx, 10, 2);
    ASSERT_GT(v2, v1);
    EXPECT_TRUE(leaf.adoptSnapshot(idx.snapshot()));
    EXPECT_EQ(leaf.currentVersion(), v2);
    EXPECT_EQ(leaf.snapshotsAdopted(), 1u);
    EXPECT_EQ(docsOf(leaf.serve(0, probe()).docs),
              (std::set<DocId>{1, 2, 3, 10, 11}));

    // Same version again (an idempotent re-rollout): accepted.
    EXPECT_TRUE(leaf.adoptSnapshot(idx.snapshot()));
    EXPECT_EQ(leaf.snapshotsAdopted(), 2u);

    // Null, torn (checksum mismatch), and stale handoffs: refused,
    // counted, current snapshot untouched.
    EXPECT_FALSE(leaf.adoptSnapshot(nullptr));
    EXPECT_FALSE(leaf.adoptSnapshot(idx.snapshot()->corruptedCopy()));
    EXPECT_FALSE(leaf.adoptSnapshot(snap_v1)); // version regression
    EXPECT_EQ(leaf.handoffsRejected(), 3u);
    EXPECT_EQ(leaf.currentVersion(), v2);
    EXPECT_EQ(leaf.serve(0, probe()).indexVersion, v2);
}

TEST(LivePool, CompletionsCarryTheServedVersion)
{
    LiveIndex idx;
    const uint64_t v1 = ingest(idx, 1, 4);

    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    LeafWorkerPool pool(idx.snapshot(), pc);

    std::atomic<uint64_t> seen_version{0};
    std::atomic<int> completions{0};
    std::atomic<size_t> expect_docs{4};
    auto done = [&](std::vector<ScoredDoc> &&docs, ServeOutcome out,
                    uint64_t version) {
        EXPECT_EQ(out, ServeOutcome::Ok);
        EXPECT_EQ(docs.size(), expect_docs.load());
        seen_version.store(version);
        ++completions;
    };
    ASSERT_EQ(pool.submitAsync(probe(), /*block=*/true, done),
              LeafWorkerPool::Admit::Accepted);
    pool.drain();
    EXPECT_EQ(completions.load(), 1);
    EXPECT_EQ(seen_version.load(), v1);

    // Adopt a newer snapshot through the pool's leaf; the version
    // range in the snapshot follows.
    const uint64_t v2 = ingest(idx, 10, 1);
    EXPECT_TRUE(pool.leafMutable().adoptSnapshot(idx.snapshot()));
    expect_docs.store(5);
    ASSERT_EQ(pool.submitAsync(probe(), true, done),
              LeafWorkerPool::Admit::Accepted);
    pool.drain();
    EXPECT_EQ(seen_version.load(), v2);

    const ServeSnapshot s = pool.snapshot();
    EXPECT_TRUE(s.consistent());
    EXPECT_EQ(s.indexVersionLow, v2);
    EXPECT_EQ(s.indexVersionHigh, v2);
    EXPECT_EQ(s.snapshotsAdopted, 1u);
    EXPECT_EQ(s.handoffsRejected, 0u);
}

TEST(MergeWorkerTest, BackgroundMergeCompacts)
{
    LiveConfig cfg;
    cfg.mergeTriggerSegments = 2;
    LiveIndex idx(cfg);

    MergeWorker::Config mc;
    mc.periodNs = 100'000; // 100 us polls on the real clock
    MergeWorker worker(idx, mc);

    DocId next = 1;
    for (int seg = 0; seg < 8; ++seg)
        ingest(idx, (next += 10), 5);
    // The worker owns compaction; wait for it to catch up.
    for (int spin = 0; spin < 2000 && idx.mergePending(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    worker.stop();

    EXPECT_GT(worker.mergesDone(), 0u);
    EXPECT_EQ(worker.mergesCrashed(), 0u);
    EXPECT_FALSE(idx.mergePending());
    EXPECT_LT(idx.stats().segments, 8u);
    EXPECT_EQ(idx.stats().liveDocs, 40u);
}

TEST(MergeWorkerTest, CrashedMergesAreHarmless)
{
    FaultPlan plan(0xabcdef);
    plan.defaultSpec().mergeCrashProb = 1.0; // every merge crashes

    LiveConfig cfg;
    cfg.mergeTriggerSegments = 2;
    LiveIndex idx(cfg);

    MergeWorker::Config mc;
    mc.periodNs = 100'000;
    mc.faults = &plan;
    MergeWorker worker(idx, mc);

    ingest(idx, 1, 3);
    const uint64_t v = ingest(idx, 10, 3);
    for (int spin = 0; spin < 200 && worker.mergesCrashed() == 0;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    worker.stop();

    // Merges kept crashing: wasted work only. Nothing published, the
    // inputs and the served version are untouched.
    EXPECT_GT(worker.mergesCrashed(), 0u);
    EXPECT_EQ(worker.mergesDone(), 0u);
    EXPECT_EQ(idx.version(), v);
    EXPECT_EQ(idx.stats().segments, 2u);
    EXPECT_TRUE(idx.mergePending());
}

struct LiveClusterFixture
{
    static constexpr uint32_t kShards = 2;
    static constexpr uint32_t kReplicas = 2;

    explicit LiveClusterFixture(const FaultPlan *faults = nullptr)
    {
        for (uint32_t s = 0; s < kShards; ++s) {
            indexes.push_back(std::make_unique<LiveIndex>());
            // Disjoint doc spaces: shard s owns 1000*s + ...
            ingest(*indexes[s], 1000 * s + 1, 4);
        }
        ClusterConfig cc;
        cc.replicasPerShard = kReplicas;
        cc.pool.numWorkers = 2;
        cc.deadlineNs = 0; // wait for every shard
        cc.faults = faults;
        std::vector<LiveIndex *> ptrs;
        for (auto &ix : indexes)
            ptrs.push_back(ix.get());
        cluster = std::make_unique<ClusterServer>(ptrs, cc);
    }

    std::vector<std::unique_ptr<LiveIndex>> indexes;
    std::unique_ptr<ClusterServer> cluster;
};

TEST(LiveCluster, ServesFromConstructionSnapshots)
{
    LiveClusterFixture fx;
    const ClusterResult res = fx.cluster->handle(probe());
    EXPECT_EQ(res.page.shardsAnswered, 2u);
    EXPECT_EQ(docsOf(res.page.docs),
              (std::set<DocId>{1, 2, 3, 4, 1001, 1002, 1003, 1004}));
    ASSERT_EQ(res.page.shardVersions.size(), 2u);
    EXPECT_EQ(res.page.shardVersions[0], fx.indexes[0]->version());
    EXPECT_EQ(res.page.shardVersions[1], fx.indexes[1]->version());
    EXPECT_EQ(fx.cluster->liveIndex(0), fx.indexes[0].get());
    EXPECT_EQ(fx.cluster->liveIndex(1), fx.indexes[1].get());
}

TEST(LiveCluster, RollingRolloutReachesEveryReplica)
{
    LiveClusterFixture fx;
    // New acked writes are not served until rolled out.
    const uint64_t v2 = ingest(*fx.indexes[0], 101, 2);
    ClusterResult res = fx.cluster->handle(probe());
    EXPECT_EQ(docsOf(res.page.docs).count(101), 0u);

    const RolloutResult roll = fx.cluster->rolloutAll();
    EXPECT_EQ(roll.replicasUpdated,
              LiveClusterFixture::kShards *
                  LiveClusterFixture::kReplicas);
    EXPECT_EQ(roll.handoffsRejected, 0u);
    EXPECT_EQ(roll.version, v2);

    res = fx.cluster->handle(probe());
    EXPECT_EQ(docsOf(res.page.docs).count(101), 1u);
    ASSERT_EQ(res.page.shardVersions.size(), 2u);
    EXPECT_EQ(res.page.shardVersions[0], v2);

    // Both replicas of each shard serve the same version, and the
    // rollout is visible in the per-shard stats.
    const ClusterSnapshot snap = fx.cluster->snapshot();
    for (uint32_t s = 0; s < 2; ++s) {
        EXPECT_EQ(snap.shards[s].rollouts, 1u);
        EXPECT_EQ(snap.shards[s].replicasDraining, 0u);
        EXPECT_EQ(snap.shards[s].pool.indexVersionLow,
                  snap.shards[s].pool.indexVersionHigh);
        EXPECT_EQ(snap.shards[s].pool.snapshotsAdopted,
                  LiveClusterFixture::kReplicas);
        EXPECT_TRUE(snap.shards[s].pool.consistent());
    }

    // Re-rolling the same version is idempotent.
    const RolloutResult again = fx.cluster->rolloutAll();
    EXPECT_EQ(again.replicasUpdated, 4u);
    EXPECT_EQ(fx.cluster->snapshot().shards[0].rollouts, 2u);
}

TEST(LiveCluster, CorruptedHandoffIsRejectedAndResent)
{
    FaultPlan plan(0xfeed);
    // Every delivery to shard 0 / replica 0 arrives torn.
    plan.replicaSpec(0, 0).handoffCorruptProb = 1.0;

    LiveClusterFixture fx(&plan);
    const uint64_t v2 = ingest(*fx.indexes[0], 101, 2);
    const RolloutResult roll =
        fx.cluster->rolloutShard(0, fx.indexes[0]->snapshot());

    // The torn copy was refused (counted), the pristine resend landed:
    // every replica still converges on the new version.
    EXPECT_EQ(roll.handoffsRejected, 1u);
    EXPECT_EQ(roll.replicasUpdated, 2u);
    EXPECT_EQ(roll.version, v2);
    const ClusterSnapshot snap = fx.cluster->snapshot();
    EXPECT_EQ(snap.shards[0].pool.handoffsRejected, 1u);
    EXPECT_EQ(snap.shards[0].pool.indexVersionLow, v2);
    EXPECT_EQ(snap.shards[0].pool.indexVersionHigh, v2);

    const ClusterResult res = fx.cluster->handle(probe());
    EXPECT_EQ(docsOf(res.page.docs).count(101), 1u);
}

TEST(LiveCluster, QueriesKeepAnsweringDuringRollouts)
{
    LiveClusterFixture fx;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> served{0};

    // Client threads hammer the cluster while rollouts cycle through
    // the replicas; with R == 2 one replica always serves, so no
    // query may come back empty or torn.
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
        clients.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                const ClusterResult res = fx.cluster->handle(probe());
                EXPECT_EQ(res.page.shardsAnswered, 2u);
                EXPECT_GE(res.page.docs.size(), 8u);
                ++served;
            }
        });
    }
    for (int round = 0; round < 10; ++round) {
        ingest(*fx.indexes[round % 2], 2000 + 10 * round, 1);
        fx.cluster->rolloutAll();
    }
    while (served.load() < 50)
        std::this_thread::yield();
    stop.store(true, std::memory_order_release);
    for (std::thread &t : clients)
        t.join();

    const ClusterSnapshot snap = fx.cluster->snapshot();
    EXPECT_EQ(snap.shardMisses, 0u);
    for (const ShardSnapshot &ss : snap.shards)
        EXPECT_TRUE(ss.pool.consistent());
}

TEST(LiveCluster, FrozenClusterHasNoLiveSide)
{
    CorpusConfig cc;
    cc.numDocs = 200;
    cc.vocabSize = 500;
    cc.avgDocLen = 20;
    CorpusGenerator corpus(cc);
    MaterializedIndex index(corpus);
    ClusterConfig cfg;
    cfg.replicasPerShard = 1;
    cfg.deadlineNs = 0;
    ClusterServer cluster({&index}, cfg);

    EXPECT_EQ(cluster.liveIndex(0), nullptr);
    SearchRequest req;
    req.query.id = 9;
    req.query.terms = {1, 2};
    req.query.conjunctive = false;
    req.query.topK = 10;
    const ClusterResult res = cluster.handle(req);
    // Frozen pages carry no version vector (nothing is versioned).
    EXPECT_TRUE(res.page.shardVersions.empty());
}

} // namespace
} // namespace wsearch
