/**
 * @file
 * Self-tests of the benchmark's own machinery, run by
 * test_perfbench.py (or directly: .bench_build/perfbench_selftest).
 * Exits nonzero on the first failed expectation.
 *
 *   digest      perturbing any one simulated counter changes the digest
 *   stall       a stall on the submit path is charged to every request
 *               scheduled behind it, and shows as generator lateness
 *   summary     the tail percentile rule (>= 10 samples beyond it) and
 *               the per-window quietest-quartile reading
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "harness.hh"
#include "openloop.hh"

using namespace perfbench;
using wsearch::SystemResult;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

/** A result with every counter distinct and nonzero. */
SystemResult
sampleResult()
{
    SystemResult r;
    uint64_t v = 1;
    auto next = [&v] { return v++ * 7919; };
    r.instructions = next();
    for (wsearch::CacheLevelStats *s : {&r.l1i, &r.l1d, &r.l2, &r.l3, &r.l4}) {
        for (uint32_t k = 0; k < wsearch::kNumAccessKinds; ++k) {
            s->accesses[k] = next();
            s->misses[k] = next();
        }
        s->prefetchIssued = next();
        s->prefetchUseful = next();
    }
    for (uint64_t *p : {&r.l3Evictions, &r.writebacks, &r.backInvalidations,
                        &r.cohUpgrades, &r.cohInvalidations,
                        &r.cohDirtyWritebacks, &r.branches, &r.mispredicts,
                        &r.dtlbAccesses, &r.dtlbWalks, &r.itlbWalks,
                        &r.sampledWindows, &r.representedWindows})
        *p = next();
    for (double *p : {&r.topdown.retiring, &r.topdown.badSpeculation,
                      &r.topdown.frontendLatency,
                      &r.topdown.frontendBandwidth,
                      &r.topdown.backendMemory, &r.topdown.backendCore,
                      &r.ipcPerThread, &r.amatL3Ns, &r.l3MissVar})
        *p = static_cast<double>(next()) * 0.25;
    return r;
}

void
testDigest()
{
    const SystemResult base = sampleResult();
    const uint64_t d0 = digest(base);
    expect(digest(sampleResult()) == d0, "digest is deterministic");

    // Every counter field, perturbed by one unit, must move the digest.
    std::vector<std::function<void(SystemResult &)>> perturb;
    perturb.push_back([](SystemResult &r) { ++r.instructions; });
    for (int lvl = 0; lvl < 5; ++lvl) {
        auto level = [lvl](SystemResult &r) -> wsearch::CacheLevelStats & {
            wsearch::CacheLevelStats *ls[] = {&r.l1i, &r.l1d, &r.l2, &r.l3,
                                              &r.l4};
            return *ls[lvl];
        };
        for (uint32_t k = 0; k < wsearch::kNumAccessKinds; ++k) {
            perturb.push_back([=](SystemResult &r) { ++level(r).accesses[k]; });
            perturb.push_back([=](SystemResult &r) { ++level(r).misses[k]; });
        }
        perturb.push_back([=](SystemResult &r) { ++level(r).prefetchIssued; });
        perturb.push_back([=](SystemResult &r) { ++level(r).prefetchUseful; });
    }
    for (auto m : {&SystemResult::l3Evictions, &SystemResult::writebacks,
                   &SystemResult::backInvalidations,
                   &SystemResult::cohUpgrades, &SystemResult::cohInvalidations,
                   &SystemResult::cohDirtyWritebacks, &SystemResult::branches,
                   &SystemResult::mispredicts, &SystemResult::dtlbAccesses,
                   &SystemResult::dtlbWalks, &SystemResult::itlbWalks,
                   &SystemResult::sampledWindows,
                   &SystemResult::representedWindows})
        perturb.push_back([m](SystemResult &r) { ++(r.*m); });
    for (auto m : {&SystemResult::ipcPerThread, &SystemResult::amatL3Ns,
                   &SystemResult::l3MissVar})
        perturb.push_back([m](SystemResult &r) { r.*m += 1.0; });
    perturb.push_back([](SystemResult &r) { r.topdown.retiring += 1.0; });
    perturb.push_back(
        [](SystemResult &r) { r.topdown.backendMemory += 1.0; });

    int caught = 0;
    for (const auto &p : perturb) {
        SystemResult r = base;
        p(r);
        caught += digest(r) != d0 ? 1 : 0;
    }
    std::printf("digest: %d of %zu single-counter perturbations caught\n",
                caught, perturb.size());
    expect(caught == static_cast<int>(perturb.size()),
           "every perturbed counter changes the digest");

    // The memsim-only result digests its own counters the same way.
    wsearch::SimResult s;
    s.l3.misses[1] = 5;
    const uint64_t ds = digest(s);
    ++s.l3.misses[1];
    expect(digest(s) != ds, "SimResult digest catches a perturbed counter");
}

void
testStall()
{
    // 60 requests due every 1 ms; request 10's send stalls 20 ms.
    constexpr size_t kStalled = 10;
    constexpr uint64_t kGapNs = 1'000'000;
    constexpr uint64_t kStallNs = 20'000'000;
    std::vector<uint64_t> due;
    for (size_t i = 0; i < 60; ++i)
        due.push_back(i * kGapNs);
    OpenLoop ol(due);
    std::vector<uint64_t> sent(due.size());
    const uint64_t missing = ol.run(
        [&](size_t i) {
            if (i == kStalled)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(kStallNs));
            sent[i] = nowNs();
            ol.complete(i, true); // the server itself answers instantly
        },
        1'000'000'000);
    expect(missing == 0, "every stalled-run request completes");

    // Requests due during the stall are charged the rest of it: each
    // waits at least until the stalled send returned.
    const uint64_t stall_end = ol.dueNs(kStalled) + kStallNs;
    bool charged = true;
    int behind = 0;
    for (size_t i = kStalled; i < due.size(); ++i) {
        if (ol.dueNs(i) >= stall_end)
            break;
        ++behind;
        const double owed_us =
            static_cast<double>(stall_end - ol.dueNs(i)) * 1e-3;
        charged = charged && ol.latencyUs(i) + 1.0 >= owed_us;
    }
    std::printf("stall: %d requests scheduled behind a %.0f ms stall, "
                "request %zu latency %.0f us, generator late %.0f us\n",
                behind, kStallNs * 1e-6, kStalled + 1,
                ol.latencyUs(kStalled + 1), ol.lateUs(kStalled + 1));
    expect(behind >= 15, "the stall covers the following requests");
    expect(charged, "each request behind the stall is charged its wait");
    expect(ol.lateUs(kStalled + 1) >= 0.9 * (kStallNs - kGapNs) * 1e-3,
           "the generator's lateness shows the stall");
    // Timing from the send instead would have hidden it.
    const double from_send_us =
        static_cast<double>(ol.dueNs(kStalled + 1) +
                            static_cast<uint64_t>(
                                ol.latencyUs(kStalled + 1) * 1e3) -
                            sent[kStalled + 1]) *
        1e-3;
    expect(from_send_us < 1000.0,
           "send-time latency would not have seen the stall");
}

void
testSummary()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    const LatencySummary s = summarize(v);
    expect(s.n == 100 && s.p50 == 50.5, "median of 1..100");
    expect(s.tail == 90 && s.tailQuantile == 0.9,
           "100 samples: the tail is the 90th, ten beyond it");
    // Windows: three quiet ones and one slowed by a host burst; the
    // quietest quartile reads the quiet level, the whole run the burst.
    Windowed win(1.0);
    for (int w = 0; w < 4; ++w)
        for (int i = 0; i < 100; ++i)
            win.add(w + 0.001 * i, (w == 2 ? 10.0 : 1.0) * (1 + i));
    const LatencySummary ws = win.summary();
    expect(ws.n == 400 && ws.p50 == 50.5 && ws.tail == 90,
           "windowed summary reads the quiet windows");
    expect(win.wholeRun().tail >= 900, "whole-run tail shows the burst");
    expect(win.rate() == 100, "windowed rate counts samples per second");
    // A regression that slows every window moves the reading.
    Windowed slow(1.0);
    for (int w = 0; w < 4; ++w)
        for (int i = 0; i < 100; ++i)
            slow.add(w + 0.001 * i, 2.0 * (1 + i));
    expect(slow.summary().tail == 180,
           "a slowdown in every window moves the windowed tail");
    std::vector<double> big(5000, 1.0);
    big.back() = 7.0;
    const LatencySummary b = summarize(big);
    expect(b.tailQuantile == 0.99, "5000 samples: the tail caps at p99");
}

} // namespace

int
main()
{
    testDigest();
    testStall();
    testSummary();
    std::printf(failures ? "selftest: %d FAILED\n" : "selftest: ok\n",
                failures);
    return failures ? 1 : 0;
}
