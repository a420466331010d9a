#include <gtest/gtest.h>

#include "search/root.hh"

namespace wsearch {
namespace {

TEST(RootMerge, MergesBestFirst)
{
    std::vector<std::vector<ScoredDoc>> partials = {
        {{1, 9.f}, {2, 5.f}},
        {{3, 7.f}, {4, 1.f}},
        {{5, 8.f}},
    };
    const auto merged = RootServer::merge(partials, 3);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].doc, 1u);
    EXPECT_EQ(merged[1].doc, 5u);
    EXPECT_EQ(merged[2].doc, 3u);
}

TEST(RootMerge, HandlesEmptyPartials)
{
    std::vector<std::vector<ScoredDoc>> partials = {{}, {{1, 2.f}}, {}};
    const auto merged = RootServer::merge(partials, 10);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].doc, 1u);
}

/** Run @p q through the SearchRequest API, returning just the docs. */
std::vector<ScoredDoc>
treeRun(MultiLevelTree &tree, uint32_t tid, const Query &q)
{
    SearchRequest req;
    req.query = q;
    return tree.handle(tid, req).docs;
}

struct TreeFixture
{
    TreeFixture()
    {
        CorpusConfig cc;
        cc.numDocs = 300;
        cc.vocabSize = 200;
        cc.avgDocLen = 50;
        corpus = std::make_unique<CorpusGenerator>(cc);
        index = std::make_unique<MaterializedIndex>(*corpus);

        LeafServer::Config lc;
        lc.numThreads = 2;
        // Two leaves over the same shard but with different doc-id
        // mappings, standing in for disjoint partitions.
        LeafServer::Config lc0 = lc, lc1 = lc;
        lc0.docIdStride = 2;
        lc0.docIdOffset = 0;
        lc1.docIdStride = 2;
        lc1.docIdOffset = 1;
        leaf0 = std::make_unique<LeafServer>(*index, lc0);
        leaf1 = std::make_unique<LeafServer>(*index, lc1);
    }

    std::unique_ptr<CorpusGenerator> corpus;
    std::unique_ptr<MaterializedIndex> index;
    std::unique_ptr<LeafServer> leaf0, leaf1;
};

// The flat cache + root + leaves tree: one parent over every leaf.

TEST(FlatTree, FansOutAndMerges)
{
    TreeFixture f;
    MultiLevelTree tree({f.leaf0.get(), f.leaf1.get()}, 2, 64);
    Query q;
    q.id = 42;
    q.terms = {0, 1};
    q.conjunctive = false;
    q.topK = 10;
    const auto r = treeRun(tree, 0, q);
    EXPECT_FALSE(r.empty());
    EXPECT_EQ(tree.stats().queries, 1u);
    EXPECT_EQ(tree.stats().leafQueries, 2u);
    // Results contain both even (leaf0) and odd (leaf1) global ids.
    bool even = false, odd = false;
    for (const auto &sd : r)
        (sd.doc % 2 == 0 ? even : odd) = true;
    EXPECT_TRUE(even);
    EXPECT_TRUE(odd);
}

TEST(FlatTree, CacheAbsorbsRepeats)
{
    TreeFixture f;
    MultiLevelTree tree({f.leaf0.get(), f.leaf1.get()}, 2, 64);
    Query q;
    q.id = 7;
    q.terms = {0};
    q.conjunctive = false;
    const auto first = treeRun(tree, 0, q);
    const auto second = treeRun(tree, 1, q);
    EXPECT_EQ(tree.stats().queries, 2u);
    EXPECT_EQ(tree.stats().cacheHits, 1u);
    EXPECT_EQ(tree.stats().leafQueries, 2u); // only the first fan-out
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].doc, second[i].doc);
}

TEST(FlatTree, SingleLeafEqualsDirectServe)
{
    TreeFixture f;
    LeafServer::Config plain;
    plain.numThreads = 1;
    LeafServer leaf(*f.index, plain);
    LeafServer leaf_direct(*f.index, plain);
    MultiLevelTree tree({&leaf}, 1, 0); // no cache
    Query q;
    q.id = 9;
    q.terms = {2, 3};
    q.conjunctive = false;
    q.topK = 8;
    const auto via_tree = treeRun(tree, 0, q);
    SearchRequest req;
    req.query = q;
    const auto direct = leaf_direct.serve(0, req).docs;
    ASSERT_EQ(via_tree.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(via_tree[i].doc, direct[i].doc);
}

TEST(LeafFootprint, SharedHeapDominatesAndScalesSubLinearly)
{
    // A production-scale shard: the shared metadata/lexicon heap
    // dwarfs the per-thread buffers, which is the paper's Figure 4
    // observation.
    ProceduralIndex::Config pc;
    pc.numDocs = 400000;
    pc.numTerms = 50000;
    pc.maxDocFreq = 1000;
    pc.minDocFreq = 4;
    pc.payloadBytes = 0;
    ProceduralIndex shard(pc);
    LeafServer::Config c1, c8;
    c1.numThreads = 1;
    c1.perThreadBufferBytes = 256 * KiB;
    c8.numThreads = 8;
    c8.perThreadBufferBytes = 256 * KiB;
    LeafServer l1(shard, c1), l8(shard, c8);
    const FootprintStats f1 = l1.footprint();
    const FootprintStats f8 = l8.footprint();
    // Heap >> stack and code scales not at all (paper Figure 4).
    EXPECT_GT(f8.heapBytes(), f8.stackBytes);
    EXPECT_EQ(f1.codeBytes, f8.codeBytes);
    // 8x threads must NOT mean 8x heap: shared part is constant.
    EXPECT_LT(static_cast<double>(f8.heapBytes()),
              4.0 * static_cast<double>(f1.heapBytes()));
    EXPECT_EQ(f8.stackBytes, 8 * f1.stackBytes);
}

} // namespace
} // namespace wsearch
