#include "trace/buffered_trace.hh"

#include <algorithm>

namespace wsearch {

std::shared_ptr<const BufferedTrace>
BufferedTrace::materialize(TraceSource &src, uint64_t records,
                           size_t chunk_records)
{
    auto trace = std::shared_ptr<BufferedTrace>(
        new BufferedTrace(chunk_records));
    const size_t chunk = trace->chunkRecords_;
    uint64_t remaining = records;
    while (remaining > 0) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(chunk, remaining));
        std::vector<TraceRecord> c(want);
        size_t filled = 0;
        while (filled < want) {
            const size_t got =
                src.fill(c.data() + filled, want - filled);
            if (got == 0)
                break;
            filled += got;
        }
        c.resize(filled);
        if (filled == 0)
            break;
        trace->size_ += filled;
        remaining -= filled;
        trace->chunks_.push_back(std::move(c));
        if (filled < want)
            break; // source exhausted

    }
    return trace;
}

size_t
BufferedTrace::Cursor::fill(TraceRecord *buf, size_t max)
{
    const uint64_t n = trace_->forEachSpan(
        pos_, max, [&buf](const TraceRecord *recs, size_t k) {
            buf = std::copy(recs, recs + k, buf);
        });
    pos_ += n;
    return static_cast<size_t>(n);
}

} // namespace wsearch
