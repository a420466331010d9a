#include "openloop.hh"

#include <chrono>
#include <cmath>
#include <thread>

#include "harness.hh"
#include "util/rng.hh"

namespace perfbench {

std::vector<uint64_t>
poissonSchedule(double rate, double seconds, uint64_t seed)
{
    std::vector<uint64_t> out;
    out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
    wsearch::Rng rng(seed);
    const double horizon_ns = seconds * 1e9;
    double t = 0;
    for (;;) {
        // Exponential gap; 1 - u keeps the log argument in (0, 1].
        t += -std::log(1.0 - rng.nextDouble()) / rate * 1e9;
        if (t >= horizon_ns)
            break;
        out.push_back(static_cast<uint64_t>(t));
    }
    return out;
}

OpenLoop::OpenLoop(std::vector<uint64_t> offsets_ns)
    : offsets_(std::move(offsets_ns)), sentNs_(offsets_.size(), 0),
      doneNs_(new std::atomic<uint64_t>[offsets_.size()]),
      ok_(new std::atomic<uint8_t>[offsets_.size()])
{
    for (size_t i = 0; i < offsets_.size(); ++i) {
        doneNs_[i].store(0, std::memory_order_relaxed);
        ok_[i].store(0, std::memory_order_relaxed);
    }
}

uint64_t
OpenLoop::run(const std::function<void(size_t)> &send, uint64_t grace_ns)
{
    // Start a little in the future so request 0 is not late by
    // construction.
    startNs_ = nowNs() + 100'000;
    for (size_t i = 0; i < offsets_.size(); ++i) {
        spinUntil(dueNs(i));
        sentNs_[i] = nowNs();
        send(i);
    }
    const uint64_t give_up = nowNs() + grace_ns;
    size_t next = 0;
    while (next < offsets_.size()) {
        if (done(next)) {
            ++next;
            continue;
        }
        if (nowNs() >= give_up)
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    uint64_t missing = 0;
    for (size_t i = next; i < offsets_.size(); ++i)
        missing += done(i) ? 0 : 1;
    return missing;
}

void
OpenLoop::complete(size_t i, bool ok)
{
    ok_[i].store(ok ? 1 : 0, std::memory_order_relaxed);
    doneNs_[i].store(nowNs(), std::memory_order_release);
}

bool
OpenLoop::done(size_t i) const
{
    return doneNs_[i].load(std::memory_order_acquire) != 0;
}

bool
OpenLoop::ok(size_t i) const
{
    return done(i) && ok_[i].load(std::memory_order_relaxed) != 0;
}

double
OpenLoop::latencyUs(size_t i) const
{
    const uint64_t d = doneNs_[i].load(std::memory_order_acquire);
    const uint64_t due = dueNs(i);
    return d > due ? static_cast<double>(d - due) * 1e-3 : 0.0;
}

double
OpenLoop::lateUs(size_t i) const
{
    const uint64_t due = dueNs(i);
    return sentNs_[i] > due
        ? static_cast<double>(sentNs_[i] - due) * 1e-3
        : 0.0;
}

} // namespace perfbench
