/**
 * @file
 * Background merge thread for one LiveIndex: wakes on a fixed period,
 * asks the index's merge policy whether compaction work is pending,
 * and runs merges to completion one at a time. The merge-crash fault
 * hook (FaultPlan::crashMerge, drawn per merge sequence number)
 * abandons a merge partway through the build phase -- the live index
 * discards the partial output and the inputs stay untouched, so a
 * crashed merge costs wall-clock only, never correctness.
 *
 * The period waits run on an injected Clock: under SimClock the
 * worker only advances when the test moves virtual time, and stop()
 * is always responsive (the wait also wakes on the stop flag).
 */

#ifndef WSEARCH_SEARCH_LIVE_MERGE_WORKER_HH
#define WSEARCH_SEARCH_LIVE_MERGE_WORKER_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "search/live/live_index.hh"
#include "serve/clock.hh"
#include "serve/fault.hh"

namespace wsearch {

/** Owns the background merge thread of one LiveIndex. */
class MergeWorker
{
  public:
    struct Config
    {
        /** Pause between merge-policy polls. */
        uint64_t periodNs = 2'000'000; // 2 ms
        /** Shard id reported to the fault injector. */
        uint32_t shardId = 0;
        /** Time source (null = real steady clock). */
        Clock *clock = nullptr;
        /** Fault decisions (null = benign). */
        const FaultPlan *faults = nullptr;
    };

    MergeWorker(LiveIndex &index, const Config &cfg);
    ~MergeWorker();

    /** Stop and join the merge thread (idempotent). */
    void stop();

    uint64_t mergesDone() const { return done_.load(); }
    uint64_t mergesCrashed() const { return crashed_.load(); }

  private:
    void main();

    LiveIndex &index_;
    const Config cfg_;
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> crashed_{0};
    uint64_t seq_ = 0; ///< merge sequence number (thread-local)
    std::mutex mu_;
    std::condition_variable cv_;
    std::thread thread_;
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_LIVE_MERGE_WORKER_HH
