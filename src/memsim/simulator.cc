#include "memsim/simulator.hh"

namespace wsearch {

namespace {

/** Replay one contiguous record span through @p hier. */
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

} // namespace

SimResult
runTrace(TraceSource &src, CacheHierarchy &hier, uint64_t warmup,
         uint64_t measure)
{
    const auto pump = [&hier](const TraceRecord *rec, size_t n) {
        pumpSpan(hier, rec, n);
    };
    forEachBatch(src, warmup, pump);
    hier.resetStats();
    return harvestCounters(hier, forEachBatch(src, measure, pump));
}

uint64_t
pumpRange(const BufferedTrace &trace, CacheHierarchy &hier,
          uint64_t begin, uint64_t count)
{
    return trace.forEachSpan(
        begin, count, [&hier](const TraceRecord *rec, size_t n) {
            pumpSpan(hier, rec, n);
        });
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
