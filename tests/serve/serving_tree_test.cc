/**
 * Concurrency tests for the serving tree's (MultiLevelTree's) stats
 * and cache tier, flat (one parent over every leaf) and two-level.
 * These run under the "serve" ctest label so the TSan configuration
 * (WSEARCH_SANITIZE=thread) exercises them: the original Stats struct
 * did unsynchronized increments from concurrent handle() callers,
 * which these tests are built to catch regressing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "search/corpus.hh"
#include "search/root.hh"
#include "search/sharding.hh"

namespace wsearch {
namespace {

SearchRequest
asRequest(const Query &q)
{
    SearchRequest req;
    req.query = q;
    return req;
}

constexpr uint32_t kThreads = 4;
constexpr uint32_t kQueriesPerThread = 200;
constexpr uint32_t kLeaves = 3;

struct TreeFixture
{
    TreeFixture()
    {
        CorpusConfig cc;
        cc.numDocs = 600;
        cc.vocabSize = 1500;
        cc.avgDocLen = 40;
        CorpusGenerator corpus(cc);
        sharded = buildShardedIndex(corpus, kLeaves);
        for (uint32_t s = 0; s < kLeaves; ++s) {
            LeafServer::Config lc = sharded.leafConfig(s);
            lc.numThreads = kThreads;
            leaves.push_back(std::make_unique<LeafServer>(
                sharded.shard(s), lc));
        }
        for (const auto &l : leaves)
            leafPtrs.push_back(l.get());
    }

    QueryGenerator::Config
    traffic() const
    {
        QueryGenerator::Config qc;
        qc.vocabSize = 1500;
        // Small distinct set: heavy repetition drives cache hits and
        // contention on the cache mutex.
        qc.distinctQueries = 64;
        qc.maxTerms = 3;
        return qc;
    }

    ShardedIndex sharded;
    std::vector<std::unique_ptr<LeafServer>> leaves;
    std::vector<LeafServer *> leafPtrs;
};

TEST(ServingTreeConcurrent, StatsConsistentUnderConcurrentHandles)
{
    TreeFixture fx;
    MultiLevelTree tree(fx.leafPtrs, /*fanout=*/kLeaves,
                        /*cache_capacity=*/32);

    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fx, &tree, t] {
            QueryGenerator gen(fx.traffic(), /*salt=*/t + 1);
            for (uint32_t i = 0; i < kQueriesPerThread; ++i) {
                const std::vector<ScoredDoc> r =
                    tree.handle(t, asRequest(gen.next())).docs;
                // Results stay sorted best-first even under load.
                for (size_t j = 1; j < r.size(); ++j)
                    EXPECT_FALSE(r[j - 1] < r[j]);
            }
        });
    }
    // Concurrent readers: snapshots must be tear-free under TSan.
    std::thread reader([&tree] {
        for (int i = 0; i < 100; ++i) {
            const MultiLevelTree::Stats s = tree.stats();
            EXPECT_LE(s.cacheHits, s.queries);
            std::this_thread::yield();
        }
    });
    for (std::thread &t : threads)
        t.join();
    reader.join();

    const MultiLevelTree::Stats s = tree.stats();
    EXPECT_EQ(s.queries, kThreads * kQueriesPerThread);
    EXPECT_LE(s.cacheHits, s.queries);
    // Every cache miss fans out to every leaf, exactly once.
    EXPECT_EQ(s.leafQueries, (s.queries - s.cacheHits) * kLeaves);
    uint64_t served = 0;
    for (const LeafServer *l : fx.leafPtrs)
        served += l->queriesServed();
    EXPECT_EQ(served, s.leafQueries);
}

TEST(ServingTreeConcurrent, CachedAndUncachedResultsAgree)
{
    TreeFixture fx;
    MultiLevelTree cached(fx.leafPtrs, /*fanout=*/kLeaves,
                          /*cache_capacity=*/128);
    MultiLevelTree uncached(fx.leafPtrs, /*fanout=*/kLeaves,
                            /*cache_capacity=*/0);

    QueryGenerator gen(fx.traffic());
    for (uint32_t i = 0; i < 100; ++i) {
        const Query q = gen.next();
        const auto a = cached.handle(0, asRequest(q)).docs;
        const auto b = uncached.handle(0, asRequest(q)).docs;
        ASSERT_EQ(a.size(), b.size()) << "query " << i;
        for (size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j].doc, b[j].doc);
            EXPECT_FLOAT_EQ(a[j].score, b[j].score);
        }
    }
    EXPECT_GT(cached.stats().cacheHits, 0u);
    EXPECT_EQ(uncached.stats().cacheHits, 0u);
}

TEST(MultiLevelTreeConcurrent, StatsConsistentUnderConcurrentHandles)
{
    TreeFixture fx;
    MultiLevelTree tree(fx.leafPtrs, /*fanout=*/2,
                        /*cache_capacity=*/32);

    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fx, &tree, t] {
            QueryGenerator gen(fx.traffic(), /*salt=*/100 + t);
            for (uint32_t i = 0; i < kQueriesPerThread; ++i)
                tree.handle(t, asRequest(gen.next()));
        });
    }
    for (std::thread &t : threads)
        t.join();

    const MultiLevelTree::Stats s = tree.stats();
    EXPECT_EQ(s.queries, kThreads * kQueriesPerThread);
    EXPECT_LE(s.cacheHits, s.queries);
    EXPECT_EQ(s.leafQueries, (s.queries - s.cacheHits) * kLeaves);
    EXPECT_EQ(s.parentMerges,
              (s.queries - s.cacheHits) * tree.numParents());
}

} // namespace
} // namespace wsearch
