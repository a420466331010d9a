/**
 * @file
 * Time for the serving runtime, behind an interface so tests can
 * substitute a manually-advanced virtual clock.
 *
 * All latency accounting in src/serve uses nanoseconds on
 * std::chrono::steady_clock so measurements are immune to system
 * clock adjustments. Production code paths default to RealClock
 * (steady_clock); tests that need to *force* rare schedules -- a
 * hedge firing before a straggling primary, a deadline expiring
 * mid-gather -- construct a SimClock, hand it to the worker pool /
 * cluster / executor configs, and advance virtual time explicitly.
 * Every timing decision in the stack (deadline expiry, hedge delay,
 * retry backoff, injected fault delays) then becomes a pure function
 * of virtual time, which only moves when the test says so.
 *
 * The interface is header-only on purpose: src/search's executor
 * polls Clock::now() for mid-query deadlines without creating a link
 * dependency from wsearch_search onto wsearch_serve.
 */

#ifndef WSEARCH_SERVE_CLOCK_HH
#define WSEARCH_SERVE_CLOCK_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace wsearch {

/** Current steady-clock time in nanoseconds since an arbitrary epoch. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Sleep until steady-clock nanosecond @p deadline_ns. Returns
 * immediately when the deadline is already past; arrival schedules that
 * use absolute deadlines therefore keep their long-run offered rate
 * even when individual sleeps oversleep (late arrivals burst out).
 */
inline void
sleepUntilNs(uint64_t deadline_ns)
{
    const uint64_t now = nowNs();
    if (deadline_ns <= now)
        return;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now));
}

/**
 * Time source + timed-wait primitive. Deadlines are absolute
 * nanoseconds in this clock's epoch; 0 always means "no deadline"
 * (SimClock therefore starts its epoch above 0).
 */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Current time (ns since this clock's epoch). */
    virtual uint64_t now() const = 0;

    /** Block until now() >= @p deadline_ns (no-op when already past). */
    virtual void sleepUntil(uint64_t deadline_ns) = 0;

    /**
     * Wait on @p cv (caller holds @p lk) until @p pred holds or this
     * clock reaches @p deadline_ns (0 = wait for pred only). Returns
     * pred()'s final value. The cv must be notified whenever pred's
     * inputs change, exactly as with std::condition_variable's
     * predicate waits.
     */
    virtual bool waitUntil(std::condition_variable &cv,
                           std::unique_lock<std::mutex> &lk,
                           uint64_t deadline_ns,
                           const std::function<bool()> &pred) = 0;
};

/** Steady-clock time point for an absolute nowNs()-epoch value. */
inline std::chrono::steady_clock::time_point
steadyTimePoint(uint64_t ns)
{
    return std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(ns)));
}

/** Production clock: std::chrono::steady_clock. */
class RealClock : public Clock
{
  public:
    uint64_t now() const override { return nowNs(); }

    void
    sleepUntil(uint64_t deadline_ns) override
    {
        sleepUntilNs(deadline_ns);
    }

    bool
    waitUntil(std::condition_variable &cv,
              std::unique_lock<std::mutex> &lk, uint64_t deadline_ns,
              const std::function<bool()> &pred) override
    {
        if (deadline_ns == 0) {
            cv.wait(lk, pred);
            return true;
        }
        return cv.wait_until(lk, steadyTimePoint(deadline_ns), pred);
    }
};

/** The process-wide default clock (what a null config clock means). */
inline Clock &
realClock()
{
    static RealClock clock;
    return clock;
}

/**
 * Manually-advanced virtual clock for deterministic schedule tests.
 * now() only moves via advanceTo(); threads blocked in
 * sleepUntil() wake when virtual time reaches their deadline (or on
 * release()). waitUntil() evaluates its deadline against virtual time
 * but still wakes on cv notifications, so completions propagate
 * immediately while timeouts fire only when the test advances time.
 *
 * Teardown contract: a worker parked in sleepUntil() blocks its
 * pool's shutdown()/join until the test either advances past its
 * deadline or calls release(), which unblocks all current and future
 * sleeps (the destructor releases too).
 */
class SimClock : public Clock
{
  public:
    explicit SimClock(uint64_t start_ns = 1'000'000)
        : now_(start_ns)
    {
    }

    ~SimClock() override { release(); }

    uint64_t
    now() const override
    {
        return now_.load(std::memory_order_acquire);
    }

    void
    sleepUntil(uint64_t deadline_ns) override
    {
        std::unique_lock<std::mutex> lk(mu_);
        ++sleepers_;
        cv_.notify_all(); // wake awaitSleepers()
        cv_.wait(lk, [&] {
            return released_ ||
                now_.load(std::memory_order_relaxed) >= deadline_ns;
        });
        --sleepers_;
        cv_.notify_all();
    }

    bool
    waitUntil(std::condition_variable &cv,
              std::unique_lock<std::mutex> &lk, uint64_t deadline_ns,
              const std::function<bool()> &pred) override
    {
        // Poll at a short real-time period: virtual-time advances are
        // observed within one period, cv notifications immediately.
        // Determinism is unaffected -- whether the wait exits, and
        // with what outcome, depends only on pred and virtual time.
        for (;;) {
            if (pred())
                return true;
            if (deadline_ns != 0 && now() >= deadline_ns)
                return pred();
            cv.wait_for(lk, std::chrono::microseconds(100));
        }
    }

    /** Advance virtual time to @p ns (never moves backwards). */
    void
    advanceTo(uint64_t ns)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            uint64_t cur = now_.load(std::memory_order_relaxed);
            if (ns > cur)
                now_.store(ns, std::memory_order_release);
        }
        cv_.notify_all();
    }

    /** Unblock all current and future sleepUntil() calls (teardown). */
    void
    release()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            released_ = true;
        }
        cv_.notify_all();
    }

    /** Threads currently parked in sleepUntil(). */
    size_t
    sleepers() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return sleepers_;
    }

    /**
     * Block (in real time, bounded by @p timeout) until @p n threads
     * are parked in sleepUntil() -- the schedule-test handshake that
     * replaces sleeps: "the primary is now stuck, fire the hedge".
     * @return false on timeout.
     */
    bool
    awaitSleepers(size_t n, std::chrono::nanoseconds timeout =
                                std::chrono::seconds(10))
    {
        std::unique_lock<std::mutex> lk(mu_);
        return cv_.wait_for(lk, timeout,
                            [&] { return sleepers_ >= n; });
    }

  private:
    std::atomic<uint64_t> now_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    size_t sleepers_ = 0;
    bool released_ = false;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_CLOCK_HH
