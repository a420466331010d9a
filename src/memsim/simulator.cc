#include "memsim/simulator.hh"

#include <algorithm>

namespace wsearch {

namespace {

constexpr size_t kBatch = 8192;

/** Process @p count records; returns how many were actually consumed. */
uint64_t
pump(TraceSource &src, CacheHierarchy &hier, uint64_t count)
{
    TraceRecord buf[kBatch];
    uint64_t done = 0;
    while (done < count) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(kBatch, count - done));
        const size_t got = src.fill(buf, want);
        if (got == 0)
            break;
        pumpSpan(hier, buf, got);
        done += got;
    }
    return done;
}

} // namespace

SimResult
runTrace(TraceSource &src, CacheHierarchy &hier, uint64_t warmup,
         uint64_t measure)
{
    pump(src, hier, warmup);
    hier.resetStats();
    return harvestCounters(hier, pump(src, hier, measure));
}

void
pumpSpan(CacheHierarchy &hier, const TraceRecord *rec, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const TraceRecord &r = rec[i];
        hier.accessInstr(r.tid, r.pc);
        if (r.hasData()) {
            hier.accessData(r.tid, r.pc, r.addr, r.isStore(), r.kind);
        }
    }
}

uint64_t
pumpRange(const BufferedTrace &trace, CacheHierarchy &hier,
          uint64_t begin, uint64_t count)
{
    uint64_t done = 0;
    while (done < count) {
        const BufferedTrace::Span s =
            trace.spanAt(begin + done, count - done);
        if (s.count == 0)
            break;
        pumpSpan(hier, s.data, s.count);
        done += s.count;
    }
    return done;
}

SimResult
runTrace(const BufferedTrace &trace, CacheHierarchy &hier,
         uint64_t warmup, uint64_t measure)
{
    const uint64_t warmed = pumpRange(trace, hier, 0, warmup);
    hier.resetStats();
    return harvestCounters(hier, pumpRange(trace, hier, warmed, measure));
}

} // namespace wsearch
