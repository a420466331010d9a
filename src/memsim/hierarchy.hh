/**
 * @file
 * Multi-core cache hierarchy assembled from composable CacheLevelSpec
 * levels (spec.hh): per-core private L1-I/L1-D/L2, a shared LLC
 * (inclusive, exclusive, or NINE; optionally slice-hashed), and an
 * optional memory-side L4 modeled after the paper's proposal (§IV-C):
 * a direct-mapped eDRAM cache filled by LLC evictions (with
 * fully-associative and fill-on-miss variants for the sensitivity
 * studies).
 *
 * SMT is modeled by mapping multiple hardware threads onto the same
 * private caches (contention is emergent). Coherence defaults to None
 * — the paper validates this as acceptable because production search
 * has negligible read-write sharing (§III-A) — but an MSI/MESI
 * directory (coherence.hh) can be enabled to account the upgrade/
 * invalidation/writeback traffic that claim hides.
 *
 * The shared levels (LLC + L4) are one unit, SharedLevels, which the
 * hierarchy drives inline and the two-stage sweep (sweep.hh) drives
 * alone over a logged stream of L2 misses and evictions.
 */

#ifndef WSEARCH_MEMSIM_HIERARCHY_HH
#define WSEARCH_MEMSIM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "memsim/cache.hh"
#include "memsim/cache_unit.hh"
#include "memsim/coherence.hh"
#include "memsim/prefetch.hh"
#include "memsim/spec.hh"
#include "stats/counters.hh"

namespace wsearch {

/** Where an access was serviced. */
enum class HitLevel : uint8_t {
    L1 = 1,
    L2 = 2,
    L3 = 3,
    L4 = 4,
    Memory = 5,
};

class CacheHierarchy;

/**
 * One shared-level event of a private-only replay (the two-stage
 * sweep's step 1, sweep.hh): an L2 demand miss (addr, store, kind) or
 * an L2 eviction (addr, dirty), stamped with the index of the trace
 * record that caused it. 16 bytes: the address, then the record index
 * above eight flag bits.
 */
struct SharedEvent
{
    uint64_t addr = 0;
    uint64_t meta = 0; ///< record << 8 | kind << 2 | dirty-or-store | evict

    static constexpr uint64_t kEvict = 1;
    static constexpr uint64_t kWrite = 2; ///< store (miss) or dirty (evict)

    uint64_t record() const { return meta >> 8; }
    bool eviction() const { return meta & kEvict; }
    bool write() const { return meta & kWrite; }
    AccessKind kind() const { return AccessKind((meta >> 2) & 3); }
};
static_assert(sizeof(SharedEvent) == 16, "shared event layout");
static_assert(kNumAccessKinds <= 4, "SharedEvent packs the kind in 2 bits");

/**
 * Where a private-only CacheHierarchy sends its shared-level traffic:
 * the events in replay order, each stamped with @ref record, which
 * the replay loop sets before every record it feeds the hierarchy.
 * Events fill fixed 64 KiB blocks, so the log never regrows and
 * copies, and leaves no freed half-size arrays behind.
 */
struct SharedEventLog
{
    static constexpr size_t kBlockEvents = 4096;

    uint64_t record = 0; ///< index of the record being replayed
    /** Log clean L2 victims too: only an exclusive LLC reads them. */
    bool cleanEvictions = true;
    std::vector<std::vector<SharedEvent>> blocks; ///< none empty

    void
    miss(uint64_t addr, bool is_store, AccessKind kind)
    {
        push({addr, record << 8 | uint64_t(kind) << 2 |
                 (is_store ? SharedEvent::kWrite : 0)});
    }

    void
    evict(uint64_t addr, bool dirty)
    {
        if (!dirty && !cleanEvictions)
            return;
        push({addr, record << 8 | SharedEvent::kEvict |
                        (dirty ? SharedEvent::kWrite : 0)});
    }

  private:
    void
    push(const SharedEvent &e)
    {
        if (blocks.empty() || blocks.back().size() == kBlockEvents) {
            blocks.emplace_back();
            blocks.back().reserve(kBlockEvents);
        }
        blocks.back().push_back(e);
    }
};

/**
 * The shared side of the hierarchy: the LLC (sliced or not, under any
 * inclusion mode) and the optional memory-side L4, with the l3/l4
 * stats, the LLC eviction count and the writebacks of dirty LLC
 * victims. CacheHierarchy drives it inline; the two-stage sweep
 * drives it alone over a step-1 event stream. It reads no private
 * state: only an inclusive LLC reaches back up, through the owning
 * CacheHierarchy's back-invalidation.
 */
class SharedLevels
{
  public:
    /** @p upper receives an inclusive LLC's back-invalidations. */
    explicit SharedLevels(const HierarchySpec &spec,
                          CacheHierarchy *upper = nullptr);

    /** LLC lookup + fill; returns the servicing level (L3/L4/Memory). */
    HitLevel access(uint64_t addr, bool is_store, AccessKind kind);

    /** Route an L2 victim down into the LLC per the inclusion mode. */
    void fillFromL2Eviction(uint64_t evicted, bool dirty);

    const CacheLevelStats &l3Stats() const { return l3_; }
    const CacheLevelStats &l4Stats() const { return l4_; }
    uint64_t l3Evictions() const { return l3Evictions_; }
    /** Dirty LLC victims written back to memory. */
    uint64_t writebacks() const { return writebacks_; }

    void resetStats();

  private:
    void handleLlcEviction(uint64_t evicted, bool dirty);

    /** LLC slice for @p addr. Single-slice configs bypass the hash so
     *  the golden counters stay bit-identical. */
    uint32_t
    llcSlice(uint64_t addr) const
    {
        if (llc_c_.size() <= 1)
            return 0;
        const uint64_t block = addr / llcBlockBytes_;
        const uint64_t h = (block * 0x9E3779B97F4A7C15ull) >> 33;
        return static_cast<uint32_t>(h % llc_c_.size());
    }

    bool exclusive_ = false;
    bool l4VictimFill_ = false;
    uint32_t llcBlockBytes_ = 64;
    CacheHierarchy *upper_ = nullptr;
    std::vector<CacheUnit> llc_c_; ///< one per slice; empty: no LLC
    std::unique_ptr<CacheUnit> l4_c_;

    CacheLevelStats l3_, l4_;
    uint64_t l3Evictions_ = 0;
    uint64_t writebacks_ = 0;
};

/**
 * The hierarchy. All stats are aggregated per level across cores
 * (matching how the paper reports level MPKI). Level naming in the
 * stats API stays L1/L2/L3/L4 (the LLC reports as "L3") so existing
 * bench output keys are stable.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchySpec &spec);

    /**
     * Private-only hierarchy (the two-stage sweep's step 1): builds
     * the L1/L2 of the cores c with c % @p parts == @p part and no
     * shared levels, and logs every L2 demand miss and L2 eviction to
     * @p log instead. Feed it only those cores' records. The LLC must
     * not be inclusive, and @p parts must be 1 under coherence (the
     * directory invalidates other cores' caches).
     */
    CacheHierarchy(const HierarchySpec &spec, SharedEventLog &log,
                   uint32_t part, uint32_t parts);

    // SharedLevels keeps a pointer back for inclusive LLCs.
    CacheHierarchy(const CacheHierarchy &) = delete;
    CacheHierarchy &operator=(const CacheHierarchy &) = delete;

    /** Instruction fetch by hardware thread @p tid. */
    HitLevel accessInstr(uint32_t tid, uint64_t pc);

    /** Data access by hardware thread @p tid (pc trains prefetchers). */
    HitLevel accessData(uint32_t tid, uint64_t pc, uint64_t addr,
                        bool is_store, AccessKind kind);

    const HierarchySpec &spec() const { return spec_; }
    uint32_t numCores() const { return spec_.numCores; }

    /** Map a hardware thread to its core. */
    uint32_t
    coreOf(uint32_t tid) const
    {
        return (tid / spec_.smtWays) % spec_.numCores;
    }

    // Aggregated per-level statistics.
    const CacheLevelStats &l1iStats() const { return l1i_; }
    const CacheLevelStats &l1dStats() const { return l1d_; }
    const CacheLevelStats &l2Stats() const { return l2_; }
    const CacheLevelStats &l3Stats() const { return shared_.l3Stats(); }
    const CacheLevelStats &l4Stats() const { return shared_.l4Stats(); }

    uint64_t l3Evictions() const { return shared_.l3Evictions(); }
    /** Dirty L2 victims plus dirty LLC victims. */
    uint64_t
    writebacks() const
    {
        return writebacks_ + shared_.writebacks();
    }
    uint64_t backInvalidations() const { return backInvalidations_; }

    /** Coherence traffic (zero when the protocol is None). */
    CoherenceStats
    cohStats() const
    {
        return coh_ ? coh_->stats() : CoherenceStats{};
    }

    /** Clear statistics (keeps cache contents; used after warmup). */
    void resetStats();

  private:
    friend class SharedLevels;

    /** Both public forms: @p shared is the spec the shared levels are
     *  built from, @p log set for the private-only form. */
    CacheHierarchy(const HierarchySpec &spec,
                   const HierarchySpec &shared, SharedEventLog *log,
                   uint32_t part, uint32_t parts);

    HitLevel missPathData(uint32_t core, uint64_t addr, bool is_store,
                          AccessKind kind);
    HitLevel missPathInstr(uint32_t core, uint64_t pc);
    /** An L2 demand miss continues below the private levels. */
    HitLevel
    accessShared(uint64_t addr, bool is_store, AccessKind kind)
    {
        if (log_) {
            log_->miss(addr, is_store, kind);
            return HitLevel::Memory;
        }
        return shared_.access(addr, is_store, kind);
    }
    /** An L2 victim: count its writeback, then pass it down. */
    void
    l2Evicted(uint64_t evicted, bool dirty)
    {
        if (dirty)
            ++writebacks_;
        if (log_)
            log_->evict(evicted, dirty);
        else
            shared_.fillFromL2Eviction(evicted, dirty);
    }
    /** Inclusive LLC victim: drop it from every private cache. */
    void backInvalidate(uint64_t evicted);
    void applyCoherence(uint32_t core, uint64_t addr, bool is_store);

    HierarchySpec spec_;

    std::vector<std::unique_ptr<SetAssocCache>> l1i_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l1d_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l2_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l2i_c_; ///< split mode
    SharedLevels shared_;
    SharedEventLog *log_ = nullptr; ///< set: private-only replay
    std::unique_ptr<CoherenceDirectory> coh_;

    std::vector<StridePrefetcher> stride_;
    std::vector<StreamPrefetcher> stream_;

    CacheLevelStats l1i_, l1d_, l2_;
    uint64_t writebacks_ = 0; ///< dirty L2 victims
    uint64_t backInvalidations_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_HIERARCHY_HH
