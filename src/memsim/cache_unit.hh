/**
 * @file
 * CacheUnit: one physical cache array built from a CacheLevelSpec —
 * either a SetAssocCache or, for fullyAssociative specs, the O(1)
 * hash-map FullyAssocLruCache (a ways==sets SetAssocCache would scan
 * linearly and is impractical at the GiB capacities the paper's L4
 * study needs). The two backends expose one surface here so the
 * hierarchy, the generators, and the tests stop special-casing the
 * fully-associative path.
 *
 * Unsupported combinations are rejected at construction instead of
 * silently ignored (the old code dropped a configured ReplPolicy on
 * the floor when fullyAssociative was set): the fully-associative
 * backend implements exact LRU only and cannot way-partition.
 */

#ifndef WSEARCH_MEMSIM_CACHE_UNIT_HH
#define WSEARCH_MEMSIM_CACHE_UNIT_HH

#include <memory>

#include "memsim/fully_assoc.hh"
#include "memsim/spec.hh"

namespace wsearch {

/** One cache array (a level, or one slice of a sliced level). */
class CacheUnit
{
  public:
    /**
     * Build from @p spec with an explicit byte capacity (callers pass
     * spec.cache.sizeBytes / spec.slices for sliced levels).
     */
    CacheUnit(const CacheLevelSpec &spec, uint64_t size_bytes)
    {
        if (spec.fullyAssociative) {
            if (spec.cache.repl != ReplPolicy::LRU)
                wsearch_fatal("fully-associative caches implement "
                              "exact LRU only; configure LRU or use a "
                              "set-associative spec");
            if (spec.cache.partitionWays != 0)
                wsearch_fatal("fully-associative caches cannot be "
                              "way-partitioned");
            fa_ = std::make_unique<FullyAssocLruCache>(
                size_bytes, spec.cache.blockBytes);
        } else {
            CacheConfig c = spec.cache;
            c.sizeBytes = size_bytes;
            sa_ = std::make_unique<SetAssocCache>(c);
        }
    }

    /** Demand access; allocates on miss. @return true on hit. */
    bool
    access(uint64_t addr, bool is_store, uint64_t *evicted = nullptr,
           bool *evicted_dirty = nullptr)
    {
        if (sa_)
            return sa_->access(addr, is_store, evicted, evicted_dirty);
        // The FA backend tracks no dirty bits (its uses — the paper's
        // memory-side L4 — never write back further down).
        if (evicted_dirty)
            *evicted_dirty = false;
        return fa_->access(addr, evicted);
    }

    /** Refresh recency on hit, no allocation (victim-cache reads). */
    bool
    touch(uint64_t addr)
    {
        return sa_ ? sa_->touch(addr) : fa_->touch(addr);
    }

    /** Lookup without state change. */
    bool
    probe(uint64_t addr) const
    {
        return sa_ ? sa_->probe(addr) : fa_->probe(addr);
    }

    /** Non-demand insert (victim fill / prefetch). */
    void
    insert(uint64_t addr, bool dirty, bool prefetched,
           uint64_t *evicted = nullptr, bool *evicted_dirty = nullptr)
    {
        if (sa_) {
            sa_->insert(addr, dirty, prefetched, evicted,
                        evicted_dirty);
            return;
        }
        if (evicted_dirty)
            *evicted_dirty = false;
        fa_->insert(addr, evicted);
    }

    /** Remove a block if present; @return true when it was. */
    bool
    invalidate(uint64_t addr)
    {
        return sa_ ? sa_->invalidate(addr) : fa_->invalidate(addr);
    }

    bool fullyAssociative() const { return fa_ != nullptr; }

  private:
    std::unique_ptr<SetAssocCache> sa_;
    std::unique_ptr<FullyAssocLruCache> fa_;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_CACHE_UNIT_HH
