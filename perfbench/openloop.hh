/**
 * @file
 * Open-loop request timing without coordinated omission. Every
 * request has a due time fixed before the run starts; its latency is
 * measured from that due time to its completion, so a stall anywhere
 * on the send path is charged to every request scheduled behind it,
 * and the generator's own lateness (send time minus due time) is
 * reported separately.
 */

#ifndef PERFBENCH_OPENLOOP_HH
#define PERFBENCH_OPENLOOP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace perfbench {

/**
 * Poisson arrivals at @p rate per second for @p seconds: due-time
 * offsets in ns from the start of the run, drawn from @p seed.
 */
std::vector<uint64_t> poissonSchedule(double rate, double seconds,
                                      uint64_t seed);

class OpenLoop
{
  public:
    /** @p offsets_ns: non-decreasing due times relative to run start. */
    explicit OpenLoop(std::vector<uint64_t> offsets_ns);

    OpenLoop(const OpenLoop &) = delete;
    OpenLoop &operator=(const OpenLoop &) = delete;

    /**
     * Send request i at its due time by calling @p send(i), in order,
     * from the calling thread. @p send must arrange for complete(i, ok)
     * to be called exactly once, from any thread. Waits up to
     * @p grace_ns after the last send for completions and returns how
     * many never completed; the caller must quiesce whatever still
     * holds a pending completion before destroying this object.
     */
    uint64_t run(const std::function<void(size_t)> &send,
                 uint64_t grace_ns);

    /** Record request @p i's completion now. Thread-safe. */
    void complete(size_t i, bool ok);

    size_t size() const { return offsets_.size(); }
    bool done(size_t i) const;
    bool ok(size_t i) const;

    /** Completion minus due time, us (requires done(i)). */
    double latencyUs(size_t i) const;
    /** Send minus due time, us. */
    double lateUs(size_t i) const;
    /** Due time of request i, absolute steady-clock ns. */
    uint64_t dueNs(size_t i) const { return startNs_ + offsets_[i]; }

  private:
    std::vector<uint64_t> offsets_;
    uint64_t startNs_ = 0;
    std::vector<uint64_t> sentNs_;
    std::unique_ptr<std::atomic<uint64_t>[]> doneNs_;
    std::unique_ptr<std::atomic<uint8_t>[]> ok_;
};

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_HH
