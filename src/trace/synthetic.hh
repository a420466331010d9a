/**
 * @file
 * Statistical trace generator. Produces an infinite, deterministic,
 * multi-threaded instruction + data reference stream whose locality
 * structure follows a WorkloadProfile. Generation is procedural (no
 * stored trace) at tens of millions of records per second, which is
 * what makes the paper's GiB-scale cache sweeps feasible.
 *
 * Sharing behaviour is emergent: all threads draw heap blocks from the
 * same Zipf distribution (shared hot structures), while shard positions
 * are independent random jumps (no reuse, disjoint across threads), so
 * the Figure 5 working-set scaling falls out of the mechanism.
 */

#ifndef WSEARCH_TRACE_SYNTHETIC_HH
#define WSEARCH_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/code_model.hh"
#include "trace/profile.hh"
#include "trace/record.hh"
#include "util/scramble.hh"
#include "util/zipf.hh"

namespace wsearch {

/** Infinite multi-threaded synthetic trace following a profile. */
class SyntheticSearchTrace : public TraceSource
{
  public:
    /**
     * @param profile     workload description
     * @param num_threads software threads interleaved round-robin
     * @param seed        overrides profile.seed when nonzero
     */
    SyntheticSearchTrace(const WorkloadProfile &profile,
                         uint32_t num_threads, uint64_t seed = 0);

    size_t fill(TraceRecord *buf, size_t max) override;

    uint32_t numThreads() const { return numThreads_; }
    const WorkloadProfile &profile() const { return prof_; }

  private:
    struct ThreadState
    {
        std::unique_ptr<CodeModel> code;
        Rng rng;
        uint64_t shardPos = 0;     ///< current posting-run cursor
        uint32_t shardRunLeft = 0; ///< bytes left in the current run

        ThreadState() : rng(0) {}
    };

    void generateOne(TraceRecord &rec, uint32_t tid);
    uint64_t heapAddr(ThreadState &t, uint32_t tid);
    uint64_t shardAddr(ThreadState &t);
    uint64_t stackAddr(ThreadState &t, uint32_t tid);

    /** Shared warm region (mid-scale shared structures). */
    static constexpr uint64_t kWarmSharedBase =
        vaddr::kHeapBase + (4ull << 40);
    /** Per-thread scratch regions inside the heap segment. */
    static constexpr uint64_t kScratchStride = 32ull << 20;
    static constexpr uint64_t kHotScratchBase =
        vaddr::kHeapBase + (16ull << 40);
    static constexpr uint64_t kWarmScratchBase =
        vaddr::kHeapBase + (24ull << 40);

    WorkloadProfile prof_;
    uint32_t numThreads_;
    uint64_t seed_;
    uint64_t heapBlocks_;
    ZipfSampler heapZipf_;
    DomainScrambler heapScramble_;
    std::unique_ptr<ZipfSampler> shardZipf_; ///< set when shardTheta > 0
    std::unique_ptr<DomainScrambler> shardScramble_;
    std::vector<ThreadState> threads_;
    uint32_t rr_ = 0; ///< round-robin cursor
};

} // namespace wsearch

#endif // WSEARCH_TRACE_SYNTHETIC_HH
