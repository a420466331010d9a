#include "search/engine_trace.hh"

#include "search/touch.hh"

namespace wsearch {

namespace {

/** Data records are emitted one per this many bytes of a touch. */
constexpr uint32_t kTouchGranularity = 16;

/** Instruction-only records between data records are uniform on
 *  [0, kMaxCodeGap] (search executes a few instructions per memory
 *  reference). */
constexpr uint64_t kMaxCodeGap = 3;

} // namespace

/** Sink that appends touches to the active thread's queue. */
class EngineTraceSource::QueueSink : public TouchSink
{
  public:
    void
    touch(uint64_t addr, uint32_t bytes, AccessKind kind,
          bool is_write) override
    {
        queue_->push_back(PendingTouch{addr, bytes, kind, is_write});
    }

    void setQueue(std::deque<PendingTouch> *q) { queue_ = q; }

  private:
    std::deque<PendingTouch> *queue_ = nullptr;
};

EngineTraceSource::EngineTraceSource(const IndexShard &shard,
                                     const EngineTraceConfig &cfg)
    : cfg_(cfg), cache_(cfg.queryCacheEntries)
{
    wsearch_assert(cfg.numThreads >= 1);
    sink_ = std::make_unique<QueueSink>();
    LeafServer::Config lc;
    lc.numThreads = cfg.numThreads;
    lc.codeBytes = cfg.code.footprintBytes;
    leaf_ = std::make_unique<LeafServer>(shard, lc, sink_.get());
    threads_.resize(cfg.numThreads);
    for (uint32_t t = 0; t < cfg.numThreads; ++t) {
        uint64_t sm = cfg.seed + t * 0x9177ull;
        const uint64_t tseed = splitmix64(sm);
        threads_[t].code = std::make_unique<CodeModel>(
            cfg.code, vaddr::kCodeBase, cfg.seed, tseed);
        threads_[t].queries =
            std::make_unique<QueryGenerator>(cfg.queries, tseed);
        threads_[t].rng = Rng(tseed ^ 0x9a9ull);
    }
}

EngineTraceSource::~EngineTraceSource() = default;

void
EngineTraceSource::refillThread(uint32_t tid)
{
    ThreadState &t = threads_[tid];
    while (t.pending.empty()) {
        const Query q = t.queries->next();
        // The cache-tier probe is real work: one hashed bucket read
        // per lookup, hit or miss. Emitting it also guarantees the
        // refill loop makes progress when traffic is so repetitive
        // that the cache absorbs everything (the pruned executor
        // yields few records per query, so saturation is reachable
        // within one trace).
        t.pending.push_back(
            PendingTouch{engine_vaddr::queryCacheAddr(q.id),
                         engine_vaddr::kQueryCacheBucketBytes,
                         AccessKind::Heap, false});
        if (cache_.lookup(q.id, nullptr)) {
            // Absorbed by the cache tier; the leaf never sees it.
            ++cacheAbsorbed_;
            continue;
        }
        sink_->setQueue(&t.pending);
        SearchRequest req;
        req.query = q;
        SearchResponse resp = leaf_->serve(tid, req);
        cache_.insert(q.id, std::move(resp.docs));
        ++queriesExecuted_;
    }
}

void
EngineTraceSource::emitRecord(TraceRecord &rec, uint32_t tid)
{
    ThreadState &t = threads_[tid];
    const FetchedInstr fi = t.code->next();
    rec.pc = fi.pc;
    rec.tid = static_cast<uint16_t>(tid);
    rec.branch = fi.isBranch
        ? (fi.taken ? BranchKind::Taken : BranchKind::NotTaken)
        : BranchKind::NotBranch;
    rec.op = MemOp::None;
    rec.addr = 0;
    rec.kind = AccessKind::Heap;

    if (t.codeGap > 0) {
        --t.codeGap;
        return;
    }
    if (t.pending.empty())
        refillThread(tid);
    PendingTouch &front = t.pending.front();
    rec.op = front.write ? MemOp::Store : MemOp::Load;
    rec.addr = front.addr + t.chunkPos;
    rec.kind = front.kind;
    t.chunkPos += kTouchGranularity;
    if (t.chunkPos >= front.bytes) {
        t.pending.pop_front();
        t.chunkPos = 0;
    }
    t.codeGap = static_cast<uint32_t>(t.rng.nextRange(kMaxCodeGap + 1));
}

size_t
EngineTraceSource::fill(TraceRecord *buf, size_t max)
{
    for (size_t i = 0; i < max; ++i) {
        emitRecord(buf[i], rr_);
        rr_ = rr_ + 1 == cfg_.numThreads ? 0 : rr_ + 1;
    }
    return max;
}

} // namespace wsearch
