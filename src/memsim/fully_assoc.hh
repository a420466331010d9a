/**
 * @file
 * Fully-associative LRU cache backed by a hash map and an intrusive
 * doubly-linked list. Used for (a) the paper's full-associativity
 * sensitivity study (Figure 7a) at capacities where a linear way scan
 * would be impractical, and (b) the fully-associative L4 ablation
 * (Figure 14, "Associative" bars).
 */

#ifndef WSEARCH_MEMSIM_FULLY_ASSOC_HH
#define WSEARCH_MEMSIM_FULLY_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"
#include "util/units.hh"

namespace wsearch {

/** Fully-associative cache with exact LRU replacement. */
class FullyAssocLruCache
{
  public:
    FullyAssocLruCache(uint64_t size_bytes, uint32_t block_bytes)
        : blockShift_(log2i(block_bytes)),
          capacity_(std::max<uint64_t>(1, size_bytes / block_bytes))
    {
        wsearch_assert(isPow2(block_bytes));
        nodes_.reserve(std::min<uint64_t>(capacity_, 1u << 20));
        map_.reserve(std::min<uint64_t>(capacity_, 1u << 20));
    }

    /**
     * Demand access; allocates on miss.
     * @param evicted byte address of the evicted block or kNoBlockFa
     * @return true on hit
     */
    bool
    access(uint64_t addr, uint64_t *evicted = nullptr)
    {
        const uint64_t block = addr >> blockShift_;
        if (evicted)
            *evicted = kNoBlockFa;
        auto it = map_.find(block);
        if (it != map_.end()) {
            moveToFront(it->second);
            return true;
        }
        insertBlock(block, evicted);
        return false;
    }

    /**
     * Lookup that refreshes LRU on hit but does not allocate on miss
     * (victim-cache read path).
     */
    bool
    touch(uint64_t addr)
    {
        auto it = map_.find(addr >> blockShift_);
        if (it == map_.end())
            return false;
        moveToFront(it->second);
        return true;
    }

    /** Lookup without state change. */
    bool
    probe(uint64_t addr) const
    {
        return map_.count(addr >> blockShift_) != 0;
    }

    /** Non-demand insert; no-op when present. */
    void
    insert(uint64_t addr, uint64_t *evicted = nullptr)
    {
        const uint64_t block = addr >> blockShift_;
        if (evicted)
            *evicted = kNoBlockFa;
        auto it = map_.find(block);
        if (it != map_.end()) {
            moveToFront(it->second);
            return;
        }
        insertBlock(block, evicted);
    }

    /** Remove a block if present. */
    bool
    invalidate(uint64_t addr)
    {
        const uint64_t block = addr >> blockShift_;
        auto it = map_.find(block);
        if (it == map_.end())
            return false;
        unlink(it->second);
        freeList_.push_back(it->second);
        map_.erase(it);
        return true;
    }

    uint64_t population() const { return map_.size(); }
    uint32_t blockBytes() const { return 1u << blockShift_; }

    static constexpr uint64_t kNoBlockFa = ~0ull;

  private:
    struct Node
    {
        uint64_t block;
        uint32_t prev;
        uint32_t next;
    };
    static constexpr uint32_t kNull = ~0u;

    void
    unlink(uint32_t n)
    {
        Node &node = nodes_[n];
        if (node.prev != kNull)
            nodes_[node.prev].next = node.next;
        else
            head_ = node.next;
        if (node.next != kNull)
            nodes_[node.next].prev = node.prev;
        else
            tail_ = node.prev;
    }

    void
    linkFront(uint32_t n)
    {
        nodes_[n].prev = kNull;
        nodes_[n].next = head_;
        if (head_ != kNull)
            nodes_[head_].prev = n;
        head_ = n;
        if (tail_ == kNull)
            tail_ = n;
    }

    void
    moveToFront(uint32_t n)
    {
        if (head_ == n)
            return;
        unlink(n);
        linkFront(n);
    }

    void
    insertBlock(uint64_t block, uint64_t *evicted)
    {
        uint32_t n;
        if (map_.size() >= capacity_) {
            // Evict LRU (tail).
            n = tail_;
            const uint64_t old_block = nodes_[n].block;
            unlink(n);
            map_.erase(old_block);
            if (evicted)
                *evicted = old_block << blockShift_;
        } else if (!freeList_.empty()) {
            n = freeList_.back();
            freeList_.pop_back();
        } else {
            n = static_cast<uint32_t>(nodes_.size());
            nodes_.push_back(Node{});
        }
        nodes_[n].block = block;
        linkFront(n);
        map_[block] = n;
    }

    uint32_t blockShift_;
    uint64_t capacity_;
    uint32_t head_ = kNull;
    uint32_t tail_ = kNull;
    std::vector<Node> nodes_;
    std::vector<uint32_t> freeList_;
    std::unordered_map<uint64_t, uint32_t> map_;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_FULLY_ASSOC_HH
