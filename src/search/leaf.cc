#include "search/leaf.hh"

#include "search/live/live_index.hh"
#include "search/live/snapshot_search.hh"

namespace wsearch {

namespace {

/** Nominal per-thread stack; part of the Figure 4 accounting. */
constexpr uint64_t kStackBytesPerThread = 64 * KiB;

} // namespace

LeafServer::LeafServer(const IndexShard &shard, const Config &cfg,
                       TouchSink *sink)
    : shard_(&shard), cfg_(cfg)
{
    wsearch_assert(cfg.numThreads >= 1);
    TouchSink *effective = sink ? sink : &nullSink_;
    for (uint32_t t = 0; t < cfg.numThreads; ++t) {
        executors_.push_back(std::make_unique<QueryExecutor>(
            shard, t, effective, cfg.clock));
    }
}

LeafServer::LeafServer(std::shared_ptr<const IndexSnapshot> snapshot,
                       const Config &cfg, TouchSink *sink)
    : shard_(nullptr), cfg_(cfg), snapshot_(std::move(snapshot))
{
    wsearch_assert(cfg.numThreads >= 1);
    wsearch_assert(snapshot_ != nullptr);
    // Live segments hold global doc ids already; a stride would remap
    // them into nonsense.
    wsearch_assert(cfg.docIdStride == 1 && cfg.docIdOffset == 0);
    TouchSink *effective = sink ? sink : &nullSink_;
    for (uint32_t t = 0; t < cfg.numThreads; ++t) {
        searchers_.push_back(std::make_unique<SnapshotSearcher>(
            t, effective, cfg.clock));
    }
}

LeafServer::~LeafServer() = default;

SearchResponse
LeafServer::serve(uint32_t tid, const SearchRequest &req)
{
    SearchResponse resp;
    if (live()) {
        wsearch_assert(tid < searchers_.size());
        // Capture once: this query finishes on this version even if
        // adoptSnapshot() swaps the pointer mid-flight.
        std::shared_ptr<const IndexSnapshot> snap;
        {
            std::lock_guard<std::mutex> lk(snapMu_);
            snap = snapshot_;
        }
        resp = searchers_[tid]->search(*snap, req);
        resp.indexVersion = snap->version;
    } else {
        wsearch_assert(tid < executors_.size());
        resp = executors_[tid]->execute(req);
        if (cfg_.docIdStride != 1 || cfg_.docIdOffset != 0) {
            for (auto &r : resp.docs)
                r.doc = r.doc * cfg_.docIdStride + cfg_.docIdOffset;
        }
    }
    queriesServed_.fetch_add(1, std::memory_order_relaxed);
    return resp;
}

bool
LeafServer::adoptSnapshot(std::shared_ptr<const IndexSnapshot> snap)
{
    wsearch_assert(live());
    if (!snap || !snap->validate()) {
        handoffsRejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::lock_guard<std::mutex> lk(snapMu_);
    if (snap->version < snapshot_->version) {
        handoffsRejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    snapshot_ = std::move(snap);
    snapshotsAdopted_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

uint64_t
LeafServer::currentVersion() const
{
    if (!live())
        return 0;
    std::lock_guard<std::mutex> lk(snapMu_);
    return snapshot_->version;
}

std::shared_ptr<const IndexSnapshot>
LeafServer::snapshot() const
{
    if (!live())
        return nullptr;
    std::lock_guard<std::mutex> lk(snapMu_);
    return snapshot_;
}

FootprintStats
LeafServer::footprint() const
{
    FootprintStats f;
    f.codeBytes = cfg_.codeBytes;
    f.stackBytes = static_cast<uint64_t>(cfg_.numThreads) *
        kStackBytesPerThread;
    // Shared heap: document metadata and the term dictionary. The
    // shard itself is NOT heap (the paper accounts it separately).
    uint64_t docs = 0;
    uint64_t terms = 0;
    if (live()) {
        const auto snap = snapshot();
        for (const SegmentView &v : snap->segments) {
            docs += v.segment->numDocs();
            terms += v.segment->numTerms();
        }
    } else {
        docs = shard_->numDocs();
        terms = shard_->numTerms();
    }
    f.heapSharedBytes = docs * engine_vaddr::kDocMetaBytes +
        terms * engine_vaddr::kLexiconEntryBytes;
    uint64_t per_thread = 0;
    for (const auto &e : executors_)
        per_thread += e->scratchHighWater() + cfg_.perThreadBufferBytes;
    if (live())
        per_thread += static_cast<uint64_t>(searchers_.size()) *
            cfg_.perThreadBufferBytes;
    f.heapPerThreadBytes = per_thread;
    return f;
}

} // namespace wsearch
