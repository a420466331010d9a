/**
 * @file
 * Shared, immutable, chunked in-memory trace buffer. A BufferedTrace
 * is decoded/generated ONCE from any TraceSource and then replayed
 * any number of times -- concurrently from many threads -- without
 * regeneration cost, locks, or per-record virtual calls: consumers
 * walk contiguous TraceRecord spans chunk by chunk.
 *
 * This is what makes the parallel sweep engine (memsim/sweep.hh)
 * cheap: a sweep of N hierarchy configurations pays for trace
 * generation once instead of N times, and every worker replays the
 * same bit-identical record sequence from read-only memory.
 *
 * Memory cost is sizeof(TraceRecord) (24 bytes) per record; chunk
 * granularity is tunable so tests can exercise chunk boundaries and
 * replay loops stay cache-friendly.
 */

#ifndef WSEARCH_TRACE_BUFFERED_TRACE_HH
#define WSEARCH_TRACE_BUFFERED_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.hh"

namespace wsearch {

/** Immutable chunked record buffer; safe for concurrent replay. */
class BufferedTrace
{
  public:
    /** Default records per chunk (64K records = 1.5 MiB per chunk). */
    static constexpr size_t kDefaultChunkRecords = 1u << 16;

    /** A contiguous view into one chunk. */
    struct Span
    {
        const TraceRecord *data = nullptr;
        size_t count = 0;
    };

    /**
     * Pull up to @p records records out of @p src into a new buffer.
     * Stops early if the source is exhausted. @p chunk_records is the
     * chunk granularity (exposed for boundary tests).
     */
    static std::shared_ptr<const BufferedTrace>
    materialize(TraceSource &src, uint64_t records,
                size_t chunk_records = kDefaultChunkRecords);

    /** Total records stored. */
    uint64_t size() const { return size_; }

    size_t numChunks() const { return chunks_.size(); }

    /** The @p i-th chunk as a contiguous span. */
    Span
    chunk(size_t i) const
    {
        return {chunks_[i].data(), chunks_[i].size()};
    }

    /**
     * Longest contiguous span starting at absolute record @p begin,
     * clipped to both @p max_len and the containing chunk's edge.
     * Returns an empty span when @p begin >= size().
     */
    Span
    spanAt(uint64_t begin, uint64_t max_len) const
    {
        if (begin >= size_ || max_len == 0)
            return {};
        const size_t ci = static_cast<size_t>(begin / chunkRecords_);
        const size_t off = static_cast<size_t>(begin % chunkRecords_);
        const std::vector<TraceRecord> &c = chunks_[ci];
        const uint64_t in_chunk = c.size() - off;
        const size_t n = static_cast<size_t>(
            in_chunk < max_len ? in_chunk : max_len);
        return {c.data() + off, n};
    }

    /**
     * Walk records [@p begin, @p begin + @p count) as contiguous
     * spans, calling @p fn(const TraceRecord *recs, size_t n) once per
     * span (a span never crosses a chunk edge).
     * @return records walked (less when the buffer ends first).
     */
    template <typename Fn>
    uint64_t
    forEachSpan(uint64_t begin, uint64_t count, Fn &&fn) const
    {
        uint64_t done = 0;
        while (done < count) {
            const Span s = spanAt(begin + done, count - done);
            if (s.count == 0)
                break;
            fn(s.data, s.count);
            done += s.count;
        }
        return done;
    }

    /** Record @p i (bounds-unchecked; tests only). */
    const TraceRecord &
    at(uint64_t i) const
    {
        return chunks_[static_cast<size_t>(i / chunkRecords_)]
                      [static_cast<size_t>(i % chunkRecords_)];
    }

    /**
     * TraceSource adapter replaying the buffer once.
     * Holds a shared_ptr so the buffer outlives any live cursor.
     */
    class Cursor : public TraceSource
    {
      public:
        explicit Cursor(std::shared_ptr<const BufferedTrace> trace)
            : trace_(std::move(trace))
        {
        }

        size_t fill(TraceRecord *buf, size_t max) override;

      private:
        std::shared_ptr<const BufferedTrace> trace_;
        uint64_t pos_ = 0;
    };

  private:
    explicit BufferedTrace(size_t chunk_records)
        : chunkRecords_(chunk_records ? chunk_records : 1)
    {
    }

    size_t chunkRecords_;
    uint64_t size_ = 0;
    std::vector<std::vector<TraceRecord>> chunks_;
};

} // namespace wsearch

#endif // WSEARCH_TRACE_BUFFERED_TRACE_HH
