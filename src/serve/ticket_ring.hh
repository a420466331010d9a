/**
 * @file
 * Bounded MPMC ticket ring: the contention-free admission queue of the
 * serving runtime. The fast path is a Vyukov-style ring of slots, each
 * carrying its own sequence number; producers and consumers claim
 * positions with one CAS on their own ticket counter and then touch
 * only their claimed slot -- no mutex, no shared critical section, no
 * cache line ping-pong beyond the two ticket counters.
 *
 * Contract: producers either block until space frees up (push;
 * closed-loop clients) or fail immediately (tryPush; open-loop
 * overload shedding); consumers block until work arrives. close()
 * initiates shutdown: already-queued items still drain, further
 * pushes are refused, and blocked poppers return once the ring is
 * empty.
 *
 * Blocking semantics (closed-loop clients, worker pop) are retained by
 * a condvar slow path that engages only when the fast path fails:
 * waiters register in an atomic counter, and the fast-path side posts
 * a notify only when that counter is non-zero -- so in steady state
 * (queue neither empty nor full) no thread ever takes the wait mutex.
 * A seq_cst fence on each side of the register/check pair closes the
 * classic store/load race (both sides fence between their store and
 * their load, so at least one of them observes the other).
 *
 * Close protocol: close() sets a CLOSED bit in the high bit of the
 * enqueue ticket word itself (fetch_or), so "did this push beat the
 * close?" is decided by the modification order of ONE atomic: a
 * producer's claim CAS carries a bit-free expected value and therefore
 * cannot succeed once the bit is set. That makes the old mutex
 * queue's guarantee hold lock-free: every push that reported success
 * claimed a ticket before the close, every such ticket is counted in
 * the enqueue word a consumer reads, and pop() returns false only
 * once the ring is closed AND the dequeue ticket has caught up --
 * i.e. the ring is observed EMPTY, with a claimed-but-not-yet-
 * published slot spun out rather than declared drained.
 *
 * Capacity is enforced by an explicit ticket-distance gate
 * (enqueue - dequeue >= capacity => full) layered over a slot array of
 * max(2, next_pow2(capacity)) cells. The gate reads a possibly stale
 * dequeue ticket; since that ticket only grows, staleness can only
 * make the gate conservative (shed when nearly full), never admit
 * past capacity -- and the pow2 slot array means a claim never lands
 * on an unconsumed slot even at capacity 1.
 */

#ifndef WSEARCH_SERVE_TICKET_RING_HH
#define WSEARCH_SERVE_TICKET_RING_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "util/logging.hh"

namespace wsearch {

/** Lock-free bounded MPMC FIFO with condvar-blocking slow paths. */
template <typename T>
class TicketRing
{
  public:
    explicit TicketRing(size_t capacity)
        : capacity_(capacity), slotCount_(slotCountFor(capacity)),
          mask_(slotCount_ - 1),
          cells_(std::make_unique<Cell[]>(slotCount_))
    {
        wsearch_assert(capacity >= 1);
        for (uint64_t i = 0; i < slotCount_; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    TicketRing(const TicketRing &) = delete;
    TicketRing &operator=(const TicketRing &) = delete;

    /**
     * Blocking push: waits while full. @return false (and leaves @p v
     * untouched) when the ring was closed.
     */
    bool
    push(T &&v)
    {
        for (;;) {
            if (closed())
                return false;
            if (tryEnqueue(v)) {
                wakePoppers();
                return true;
            }
            std::unique_lock<std::mutex> lk(waitMu_);
            pushWaiters_.fetch_add(1, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_seq_cst);
            notFull_.wait(lk, [this] {
                return closed() || sizeApprox() < capacity_;
            });
            pushWaiters_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /**
     * Non-blocking push for open-loop admission control: @return false
     * (shed; @p v untouched) when full or closed.
     */
    bool
    tryPush(T &&v)
    {
        if (!tryEnqueue(v))
            return false;
        wakePoppers();
        return true;
    }

    /**
     * Blocking pop: waits for an item. @return false only when the
     * ring is closed AND fully drained (consumer shutdown signal).
     */
    bool
    pop(T &out)
    {
        Backoff stall;
        for (;;) {
            if (tryDequeue(out)) {
                wakePushers();
                return true;
            }
            // One load decides both "closed?" and "how many tickets
            // were ever claimed": no claim can follow the CLOSED bit
            // in enqPos_'s modification order, so a dequeue ticket
            // that caught up to this count means drained -- for good.
            const uint64_t raw =
                enqPos_.load(std::memory_order_acquire);
            if (raw & kClosedBit) {
                if (deqPos_.load(std::memory_order_acquire) >=
                    (raw & kTicketMask))
                    return false;
                // A producer claimed a ticket before the close but
                // has not published its slot yet; back off until it
                // publishes (it may be preempted, so yields alone can
                // starve it on an oversubscribed machine).
                stall.pause();
                continue;
            }
            if (sizeApprox() > 0) {
                // The head slot is claimed but not yet published (or
                // another consumer beat us to a just-published item).
                // The condvar predicate is already true, so wait()
                // would return immediately -- sleeping there turns
                // every blocked consumer into a waitMu_-churning
                // spin. Back off outside the lock instead.
                stall.pause();
                continue;
            }
            stall.reset();
            std::unique_lock<std::mutex> lk(waitMu_);
            popWaiters_.fetch_add(1, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_seq_cst);
            notEmpty_.wait(lk, [this] {
                return closed() || sizeApprox() > 0;
            });
            popWaiters_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /** Begin shutdown: refuse new items, wake every blocked thread. */
    void
    close()
    {
        {
            // Under waitMu_ so a concurrent waiter cannot check the
            // predicate, miss the bit, and sleep through the notify.
            std::lock_guard<std::mutex> lk(waitMu_);
            enqPos_.fetch_or(kClosedBit, std::memory_order_seq_cst);
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** Instantaneous ticket distance (enqueued - dequeued). */
    size_t
    depth() const
    {
        return sizeApprox();
    }

    bool
    closed() const
    {
        return (enqPos_.load(std::memory_order_acquire) &
                kClosedBit) != 0;
    }

    size_t capacity() const { return capacity_; }

  private:
    /**
     * Escalating wait for a claimed-but-unpublished slot: the stall
     * ends as soon as the owning producer runs again, so start with
     * yields (cheap, keeps latency tight when the producer is merely
     * between its CAS and its publish store), then fall back to short
     * exponential sleeps capped at 128us in case the producer is
     * preempted and yields alone would burn a full core per consumer.
     */
    struct Backoff
    {
        void
        pause()
        {
            if (round_ < 16) {
                std::this_thread::yield();
            } else {
                const uint32_t exp =
                    round_ - 16 < 7 ? round_ - 16 : 7;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(1u << exp));
            }
            ++round_;
        }

        void reset() { round_ = 0; }

      private:
        uint32_t round_ = 0;
    };

    /** High bit of the enqueue ticket word; the 63 ticket bits never
     *  get near it. */
    static constexpr uint64_t kClosedBit = 1ull << 63;
    static constexpr uint64_t kTicketMask = kClosedBit - 1;

    /** One ring slot. seq encodes the slot's lap state: == pos means
     *  free for the producer claiming ticket pos; == pos + 1 means
     *  published for the consumer claiming ticket pos; == pos +
     *  slotCount_ means consumed, free for the next lap. */
    struct Cell
    {
        std::atomic<uint64_t> seq{0};
        T val{};
    };

    static uint64_t
    slotCountFor(size_t capacity)
    {
        uint64_t n = 2;
        while (n < capacity)
            n *= 2;
        return n;
    }

    size_t
    sizeApprox() const
    {
        const uint64_t deq = deqPos_.load(std::memory_order_acquire);
        const uint64_t enq = enqPos_.load(std::memory_order_acquire) &
            kTicketMask;
        return enq > deq ? static_cast<size_t>(enq - deq) : 0;
    }

    /** Fast path: claim an enqueue ticket and publish. @return false
     *  when at capacity or closed; @p v is moved only on success. */
    bool
    tryEnqueue(T &v)
    {
        uint64_t raw = enqPos_.load(std::memory_order_relaxed);
        for (;;) {
            if (raw & kClosedBit)
                return false;
            const uint64_t pos = raw;
            // Explicit capacity gate: the dequeue ticket only grows,
            // so a stale dequeue read only makes this conservative.
            // A stale *enqueue* ticket, though, can read below the
            // fresh dequeue ticket (other producers + consumers ran
            // between the two loads); that means pos is obsolete, not
            // that the ring is full -- reload and retry.
            const uint64_t deq =
                deqPos_.load(std::memory_order_acquire);
            if (deq > pos) {
                raw = enqPos_.load(std::memory_order_relaxed);
                continue;
            }
            if (pos - deq >= capacity_)
                return false;
            Cell &cell = cells_[pos & mask_];
            const uint64_t seq =
                cell.seq.load(std::memory_order_acquire);
            const int64_t dif =
                static_cast<int64_t>(seq) - static_cast<int64_t>(pos);
            if (dif == 0) {
                // The expected value carries no CLOSED bit, so this
                // claim cannot succeed after close() -- the decisive
                // push-vs-close ordering.
                if (enqPos_.compare_exchange_weak(
                        raw, pos + 1, std::memory_order_relaxed)) {
                    cell.val = std::move(v);
                    cell.seq.store(pos + 1,
                                   std::memory_order_release);
                    return true;
                }
                // CAS updated raw; retry with the fresh word.
            } else if (dif < 0) {
                // Slot still holds the previous lap's item: full.
                return false;
            } else {
                raw = enqPos_.load(std::memory_order_relaxed);
            }
        }
    }

    /** Fast path: claim a dequeue ticket and consume. @return false
     *  when empty (or the head slot is claimed but not yet
     *  published). */
    bool
    tryDequeue(T &out)
    {
        uint64_t pos = deqPos_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & mask_];
            const uint64_t seq =
                cell.seq.load(std::memory_order_acquire);
            const int64_t dif = static_cast<int64_t>(seq) -
                static_cast<int64_t>(pos + 1);
            if (dif == 0) {
                if (deqPos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    out = std::move(cell.val);
                    cell.val = T{};
                    cell.seq.store(pos + slotCount_,
                                   std::memory_order_release);
                    return true;
                }
            } else if (dif < 0) {
                return false;
            } else {
                pos = deqPos_.load(std::memory_order_relaxed);
            }
        }
    }

    /** Post-publish notify, skipped entirely when nobody waits. The
     *  fence pairs with the waiter's registration fence. */
    void
    wakePoppers()
    {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (popWaiters_.load(std::memory_order_relaxed) == 0)
            return;
        {
            // Empty critical section: serializes with a waiter that
            // registered but has not yet released waitMu_ in wait().
            std::lock_guard<std::mutex> lk(waitMu_);
        }
        notEmpty_.notify_one();
    }

    void
    wakePushers()
    {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (pushWaiters_.load(std::memory_order_relaxed) == 0)
            return;
        {
            std::lock_guard<std::mutex> lk(waitMu_);
        }
        notFull_.notify_one();
    }

    const size_t capacity_;
    const uint64_t slotCount_; ///< pow2 >= max(2, capacity_)
    const uint64_t mask_;
    std::unique_ptr<Cell[]> cells_;

    /** Enqueue ticket count in the low 63 bits, CLOSED in bit 63. */
    alignas(64) std::atomic<uint64_t> enqPos_{0};
    alignas(64) std::atomic<uint64_t> deqPos_{0};

    // Slow-path blocking layer; untouched while the ring is neither
    // empty nor full.
    alignas(64) std::atomic<uint32_t> pushWaiters_{0};
    std::atomic<uint32_t> popWaiters_{0};
    std::mutex waitMu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_TICKET_RING_HH
