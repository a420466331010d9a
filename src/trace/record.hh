/**
 * @file
 * Trace record format. One record corresponds to one dynamic
 * instruction: its fetch PC, optional branch outcome, and optional data
 * access tagged with an AccessKind. Both the statistical generator and
 * the instrumented mini search engine emit this format; the cache
 * simulator and CPU models consume it.
 */

#ifndef WSEARCH_TRACE_RECORD_HH
#define WSEARCH_TRACE_RECORD_HH

#include <cstddef>
#include <cstdint>

#include "stats/access_kind.hh"

namespace wsearch {

/** Data-access operation attached to an instruction. */
enum class MemOp : uint8_t {
    None = 0,
    Load = 1,
    Store = 2,
};

/** Branch behaviour of an instruction. */
enum class BranchKind : uint8_t {
    NotBranch = 0,
    NotTaken = 1,
    Taken = 2,
};

/** Canonical virtual-address-space layout used by all trace sources. */
namespace vaddr {
constexpr uint64_t kCodeBase = 0x0000'0040'0000ull;
constexpr uint64_t kHeapBase = 0x2000'0000'0000ull;
constexpr uint64_t kShardBase = 0x4000'0000'0000ull;
constexpr uint64_t kStackBase = 0x7000'0000'0000ull;
/** Per-thread stack stride (maximum modeled stack size). */
constexpr uint64_t kStackStride = 0x0000'0100'0000ull; // 16 MiB
} // namespace vaddr

/** One dynamic instruction. */
struct TraceRecord
{
    uint64_t pc = 0;       ///< fetch address
    uint64_t addr = 0;     ///< data address (valid when op != None)
    uint16_t tid = 0;      ///< software/hardware thread id
    AccessKind kind = AccessKind::Heap; ///< kind of the data access
    MemOp op = MemOp::None;
    BranchKind branch = BranchKind::NotBranch;

    bool isBranch() const { return branch != BranchKind::NotBranch; }
    bool isTaken() const { return branch == BranchKind::Taken; }
    bool hasData() const { return op != MemOp::None; }
    bool isStore() const { return op == MemOp::Store; }
};
static_assert(sizeof(TraceRecord) == 24, "trace record layout");

/**
 * Pull-based trace source. Implementations fill caller-provided buffers
 * so the hot simulation loop never crosses a virtual call per record.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Fill up to @p max records into @p buf.
     * @return number of records produced; 0 means the source is
     *         exhausted (infinite sources never return 0).
     */
    virtual size_t fill(TraceRecord *buf, size_t max) = 0;
};

/**
 * Pull up to @p count records out of @p src in batches, handing each
 * batch to @p fn(const TraceRecord *recs, size_t n).
 * @return records pulled; less than @p count only when @p src ran dry.
 */
template <typename Fn>
uint64_t
forEachBatch(TraceSource &src, uint64_t count, Fn &&fn)
{
    constexpr size_t kBatch = 8192;
    TraceRecord buf[kBatch];
    uint64_t done = 0;
    while (done < count) {
        const size_t want = static_cast<size_t>(
            count - done < kBatch ? count - done : kBatch);
        const size_t got = src.fill(buf, want);
        if (got == 0)
            break;
        fn(static_cast<const TraceRecord *>(buf), got);
        done += got;
    }
    return done;
}

} // namespace wsearch

#endif // WSEARCH_TRACE_RECORD_HH
