#include "trace/synthetic.hh"

#include "util/logging.hh"
#include "util/units.hh"

namespace wsearch {

SyntheticSearchTrace::SyntheticSearchTrace(const WorkloadProfile &profile,
                                           uint32_t num_threads,
                                           uint64_t seed)
    : prof_(profile), numThreads_(num_threads),
      seed_(seed ? seed : profile.seed),
      heapBlocks_(std::max<uint64_t>(1, profile.heapWorkingSetBytes / 64)),
      heapZipf_(heapBlocks_, profile.heapTheta),
      heapScramble_(heapBlocks_, seed_ ^ 0x48eaull)
{
    wsearch_assert(num_threads >= 1);
    wsearch_assert(profile.heapFrac + profile.shardFrac +
                   profile.stackFrac <= 1.0 + 1e-9);
    if (prof_.shardTheta > 0.0) {
        const uint64_t runs =
            prof_.shardSpanBytes / prof_.shardRunBytes;
        shardZipf_ = std::make_unique<ZipfSampler>(runs,
                                                   prof_.shardTheta);
        shardScramble_ = std::make_unique<DomainScrambler>(
            runs, seed_ ^ 0x54a3dull);
    }
    threads_.resize(numThreads_);
    for (uint32_t t = 0; t < numThreads_; ++t) {
        uint64_t sm = seed_ + t * 0x1009ull;
        const uint64_t tseed = splitmix64(sm);
        // All threads run the same binary: structure comes from the
        // shared seed, only the walk differs per thread.
        threads_[t].code = std::make_unique<CodeModel>(
            prof_.code, vaddr::kCodeBase, seed_, tseed);
        threads_[t].rng = Rng(tseed ^ 0xda7aull);
    }
}

uint64_t
SyntheticSearchTrace::heapAddr(ThreadState &t, uint32_t tid)
{
    const double u = t.rng.nextDouble();
    if (u < prof_.heapHotFrac) {
        // Per-thread hot scratch (accumulators being updated now).
        const uint64_t off =
            t.rng.nextRange(prof_.heapHotBytesPerThread / 8) * 8;
        return kHotScratchBase + tid * kScratchStride + off;
    }
    if (u < prof_.heapHotFrac + prof_.heapWarmFrac) {
        // Per-thread warm scratch (per-query tables).
        const uint64_t off =
            t.rng.nextRange(prof_.heapWarmBytesPerThread / 8) * 8;
        return kWarmScratchBase + tid * kScratchStride + off;
    }
    if (u < prof_.heapHotFrac + prof_.heapWarmFrac +
            prof_.heapWarmSharedFrac) {
        // Shared warm structures: uniform reuse over tens of MiB,
        // shared by all threads.
        const uint64_t off =
            t.rng.nextRange(prof_.heapWarmSharedBytes / 8) * 8;
        return kWarmSharedBase + off;
    }
    // Shared long-lived structures: Zipf reuse over the full working
    // set, identical distribution for all threads (sharing emergent).
    const uint64_t rank = heapZipf_.sample(t.rng);
    const uint64_t block = heapScramble_.apply(rank);
    const uint64_t word = t.rng.nextRange(8);
    return vaddr::kHeapBase + block * 64 + word * 8;
}

uint64_t
SyntheticSearchTrace::shardAddr(ThreadState &t)
{
    if (t.shardRunLeft < prof_.shardItemBytes) {
        // Jump to the next posting run: uniform (no reuse) by
        // default, or Zipf-selected (hot posting lists) when the
        // profile models shard reuse.
        const uint64_t runs = prof_.shardSpanBytes / prof_.shardRunBytes;
        uint64_t run;
        if (shardZipf_) {
            run = shardScramble_->apply(shardZipf_->sample(t.rng));
        } else {
            run = t.rng.nextRange(runs);
        }
        t.shardPos = run * prof_.shardRunBytes;
        t.shardRunLeft = prof_.shardRunBytes;
    }
    const uint64_t addr = vaddr::kShardBase + t.shardPos +
        (prof_.shardRunBytes - t.shardRunLeft);
    t.shardRunLeft -= prof_.shardItemBytes;
    return addr;
}

uint64_t
SyntheticSearchTrace::stackAddr(ThreadState &t, uint32_t tid)
{
    const uint64_t slot =
        t.rng.nextRange(prof_.stackBytesPerThread / 8);
    return vaddr::kStackBase + tid * vaddr::kStackStride + slot * 8;
}

void
SyntheticSearchTrace::generateOne(TraceRecord &rec, uint32_t tid)
{
    ThreadState &t = threads_[tid];
    const FetchedInstr fi = t.code->next();
    rec.pc = fi.pc;
    rec.tid = static_cast<uint16_t>(tid);
    rec.branch = fi.isBranch
        ? (fi.taken ? BranchKind::Taken : BranchKind::NotTaken)
        : BranchKind::NotBranch;

    const double u = t.rng.nextDouble();
    if (u < prof_.loadFrac + prof_.storeFrac) {
        rec.op = u < prof_.loadFrac ? MemOp::Load : MemOp::Store;
        const double v = t.rng.nextDouble();
        if (v < prof_.heapFrac) {
            rec.kind = AccessKind::Heap;
            rec.addr = heapAddr(t, tid);
        } else if (v < prof_.heapFrac + prof_.shardFrac) {
            rec.kind = AccessKind::Shard;
            rec.addr = shardAddr(t);
        } else if (v < prof_.heapFrac + prof_.shardFrac +
                       prof_.stackFrac) {
            rec.kind = AccessKind::Stack;
            rec.addr = stackAddr(t, tid);
        } else {
            rec.kind = AccessKind::Heap;
            rec.addr = heapAddr(t, tid);
        }
    } else {
        rec.op = MemOp::None;
        rec.addr = 0;
        rec.kind = AccessKind::Heap;
    }
}

size_t
SyntheticSearchTrace::fill(TraceRecord *buf, size_t max)
{
    for (size_t i = 0; i < max; ++i) {
        generateOne(buf[i], rr_);
        rr_ = rr_ + 1 == numThreads_ ? 0 : rr_ + 1;
    }
    return max;
}

} // namespace wsearch
