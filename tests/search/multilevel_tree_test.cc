#include <gtest/gtest.h>

#include "search/root.hh"

namespace wsearch {
namespace {

struct Fixture
{
    Fixture()
    {
        CorpusConfig cc;
        cc.numDocs = 240;
        cc.vocabSize = 150;
        cc.avgDocLen = 40;
        corpus = std::make_unique<CorpusGenerator>(cc);
        index = std::make_unique<MaterializedIndex>(*corpus);
        for (uint32_t i = 0; i < 4; ++i) {
            LeafServer::Config lc;
            lc.numThreads = 1;
            lc.docIdStride = 4;
            lc.docIdOffset = i;
            leaves.push_back(
                std::make_unique<LeafServer>(*index, lc));
        }
    }

    std::vector<LeafServer *>
    leafPtrs()
    {
        std::vector<LeafServer *> out;
        for (auto &l : leaves)
            out.push_back(l.get());
        return out;
    }

    std::unique_ptr<CorpusGenerator> corpus;
    std::unique_ptr<MaterializedIndex> index;
    std::vector<std::unique_ptr<LeafServer>> leaves;
};

SearchRequest
asRequest(const Query &q)
{
    SearchRequest req;
    req.query = q;
    return req;
}

Query
someQuery(uint64_t id = 1)
{
    Query q;
    q.id = id;
    q.terms = {0, 2};
    q.conjunctive = false;
    q.topK = 8;
    return q;
}

TEST(MultiLevelTree, GroupsLeavesByFanout)
{
    Fixture f;
    MultiLevelTree t2(f.leafPtrs(), 2, 0);
    EXPECT_EQ(t2.numParents(), 2u);
    MultiLevelTree t3(f.leafPtrs(), 3, 0);
    EXPECT_EQ(t3.numParents(), 2u); // 3 + 1
    MultiLevelTree t4(f.leafPtrs(), 4, 0);
    EXPECT_EQ(t4.numParents(), 1u);
}

TEST(MultiLevelTree, ResultsMatchFlatTree)
{
    // Intermediate merging is associative: the two-level tree must
    // return exactly the root merge of every leaf's direct answer.
    Fixture f;
    Fixture g;
    MultiLevelTree two_level(f.leafPtrs(), 2, 0);
    for (uint64_t qid = 0; qid < 20; ++qid) {
        Query q = someQuery(qid);
        q.terms = {static_cast<TermId>(qid % 10),
                   static_cast<TermId>((qid + 3) % 10)};
        const auto a = two_level.handle(0, asRequest(q)).docs;
        std::vector<std::vector<ScoredDoc>> partials;
        for (LeafServer *leaf : g.leafPtrs())
            partials.push_back(leaf->serve(0, asRequest(q)).docs);
        const auto b = RootServer::merge(partials, q.topK);
        ASSERT_EQ(a.size(), b.size()) << "query " << qid;
        for (size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].doc, b[i].doc);
            ASSERT_EQ(a[i].score, b[i].score);
        }
    }
}

TEST(MultiLevelTree, StatsCountParentsAndLeaves)
{
    Fixture f;
    MultiLevelTree tree(f.leafPtrs(), 2, 0);
    tree.handle(0, asRequest(someQuery()));
    EXPECT_EQ(tree.stats().queries, 1u);
    EXPECT_EQ(tree.stats().parentMerges, 2u);
    EXPECT_EQ(tree.stats().leafQueries, 4u);
}

TEST(MultiLevelTree, CacheShortCircuitsWholeTree)
{
    Fixture f;
    MultiLevelTree tree(f.leafPtrs(), 2, 16);
    tree.handle(0, asRequest(someQuery(7)));
    const uint64_t leaf_queries = tree.stats().leafQueries;
    tree.handle(0, asRequest(someQuery(7)));
    EXPECT_EQ(tree.stats().cacheHits, 1u);
    EXPECT_EQ(tree.stats().leafQueries, leaf_queries);
}

} // namespace
} // namespace wsearch
