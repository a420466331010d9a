/**
 * @file
 * End-to-end mini search system: build a materialized inverted index
 * over a synthetic corpus, stand up a two-leaf serving tree with a
 * query-cache tier, serve real queries, then run the *instrumented*
 * engine as a trace source through the cache simulator and print its
 * memory-hierarchy profile — the same pipeline the paper used with
 * production servers and Pin traces.
 *
 *   ./examples/search_leaf
 */

#include <cstdio>

#include "cpu/system.hh"
#include "search/engine_trace.hh"
#include "search/root.hh"

int
main()
{
    using namespace wsearch;

    // --- Part 1: functional search over a real (materialized) index.
    CorpusConfig cc;
    cc.numDocs = 5000;
    cc.vocabSize = 4000;
    cc.avgDocLen = 100;
    CorpusGenerator corpus(cc);
    MaterializedIndex index(corpus);
    std::printf("Built index: %u docs, %u terms, %s of postings\n",
                index.numDocs(), index.numTerms(),
                formatBytes(index.shardBytes()).c_str());

    LeafServer::Config lc0, lc1;
    lc0.numThreads = lc1.numThreads = 2;
    lc0.docIdStride = lc1.docIdStride = 2;
    lc1.docIdOffset = 1;
    LeafServer leaf0(index, lc0), leaf1(index, lc1);
    MultiLevelTree tree({&leaf0, &leaf1}, /*fanout=*/2, 1024);

    QueryGenerator::Config qc;
    qc.vocabSize = cc.vocabSize;
    qc.distinctQueries = 2000;
    QueryGenerator queries(qc);
    for (int i = 0; i < 2000; ++i) {
        SearchRequest req;
        req.query = queries.next();
        tree.handle(i % 2, req);
    }
    std::printf("Served %llu queries; cache hit rate %.1f%%; "
                "leaf fan-outs %llu\n",
                (unsigned long long)tree.stats().queries,
                100.0 * tree.cache().hitRate(),
                (unsigned long long)tree.stats().leafQueries);

    const Query sample = queries.materialize(123);
    SearchRequest sample_req;
    sample_req.query = sample;
    const auto results = tree.handle(0, sample_req).docs;
    std::printf("Sample query %llu (%zu terms, %s): top hits ",
                (unsigned long long)sample.id, sample.terms.size(),
                sample.conjunctive ? "AND" : "OR");
    for (size_t i = 0; i < std::min<size_t>(3, results.size()); ++i)
        std::printf("doc%u(%.2f) ", results[i].doc, results[i].score);
    std::printf("\n\n");

    // --- Part 2: the instrumented engine as a trace source over a
    //     production-scale procedural shard, driven through the
    //     PLT1-like hierarchy.
    ProceduralIndex::Config pc;
    pc.numDocs = 1u << 22;
    pc.numTerms = 1u << 20;
    ProceduralIndex shard(pc);
    std::printf("Procedural shard: %s nominal\n",
                formatBytes(shard.shardBytes()).c_str());

    EngineTraceConfig tc;
    tc.numThreads = 8;
    tc.queries.vocabSize = shard.numTerms();
    EngineTraceSource trace(shard, tc);

    SystemConfig sys;
    sys.hierarchy.numCores = 8;
    sys.hierarchy.llc = cache_gen_llc(40 * MiB, 64, 20);
    SystemSimulator sim(sys);
    const SystemResult r = sim.run(trace, 4'000'000, 12'000'000);

    std::printf("Engine-trace profile on a 40 MiB-L3 hierarchy:\n");
    std::printf("  queries executed    %llu (+%llu absorbed by the "
                "cache tier)\n",
                (unsigned long long)trace.queriesExecuted(),
                (unsigned long long)trace.cacheAbsorbed());
    std::printf("  IPC per thread      %.2f\n", r.ipcPerThread);
    std::printf("  L2 MPKI             %.2f\n",
                r.l2.mpkiTotal(r.instructions));
    std::printf("  L3 MPKI             %.2f (shard %.2f, heap %.2f)\n",
                r.l3.mpkiTotal(r.instructions),
                r.l3.mpki(AccessKind::Shard, r.instructions),
                r.l3.mpki(AccessKind::Heap, r.instructions));
    std::printf("  L3 hit rate         %.1f%%\n",
                100.0 * r.l3.hitRateTotal());
    return 0;
}
