#include "trace/trace_file.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"

namespace wsearch {

namespace {

/** Fixed 24-byte on-disk record mirroring TraceRecord (host
 *  endianness; little-endian on every supported platform). */
struct DiskRecord
{
    uint64_t pc;
    uint64_t addr;
    uint16_t tid;
    uint8_t kind;
    uint8_t op;
    uint8_t branch;
    uint8_t pad[3];
};
static_assert(sizeof(DiskRecord) == 24, "trace record layout");

DiskRecord
toDisk(const TraceRecord &r)
{
    DiskRecord d{};
    d.pc = r.pc;
    d.addr = r.addr;
    d.tid = r.tid;
    d.kind = static_cast<uint8_t>(r.kind);
    d.op = static_cast<uint8_t>(r.op);
    d.branch = static_cast<uint8_t>(r.branch);
    return d;
}

/** Decode @p d into @p r; false when an enum byte is out of range
 *  (a corrupt or hostile file), leaving @p r unspecified. */
bool
fromDisk(const DiskRecord &d, TraceRecord *r)
{
    if (d.kind >= kNumAccessKinds ||
        d.op > static_cast<uint8_t>(MemOp::Store) ||
        d.branch > static_cast<uint8_t>(BranchKind::Taken))
        return false;
    r->pc = d.pc;
    r->addr = d.addr;
    r->tid = d.tid;
    r->kind = static_cast<AccessKind>(d.kind);
    r->op = static_cast<MemOp>(d.op);
    r->branch = static_cast<BranchKind>(d.branch);
    return true;
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 uint32_t num_threads)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return;
    header_.numThreads = num_threads;
    // Placeholder header; rewritten with the final count on close().
    std::fwrite(&header_, sizeof(header_), 1, file_);
}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        close();
}

void
TraceFileWriter::append(const TraceRecord *recs, size_t n)
{
    wsearch_assert(file_ != nullptr);
    std::vector<DiskRecord> disk(n);
    for (size_t i = 0; i < n; ++i)
        disk[i] = toDisk(recs[i]);
    std::fwrite(disk.data(), sizeof(DiskRecord), n, file_);
    header_.recordCount += n;
}

uint64_t
TraceFileWriter::captureFrom(TraceSource &src, uint64_t count)
{
    return forEachBatch(src, count,
                        [this](const TraceRecord *recs, size_t n) {
                            append(recs, n);
                        });
}

uint64_t
TraceFileWriter::close()
{
    if (!file_)
        return header_.recordCount;
    std::fseek(file_, 0, SEEK_SET);
    std::fwrite(&header_, sizeof(header_), 1, file_);
    std::fclose(file_);
    file_ = nullptr;
    return header_.recordCount;
}

TraceFileReader::TraceFileReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return;
    const bool header_ok =
        std::fread(&header_, sizeof(header_), 1, file_) == 1 &&
        header_.magic == TraceFileHeader::kMagic;
    // The record count must account for exactly the bytes after the
    // header: a truncated or padded file is refused here.
    const long end = header_ok && std::fseek(file_, 0, SEEK_END) == 0
        ? std::ftell(file_)
        : -1;
    const uint64_t body = end >= static_cast<long>(sizeof(header_))
        ? static_cast<uint64_t>(end) - sizeof(header_)
        : 0;
    if (end < static_cast<long>(sizeof(header_)) ||
        body % sizeof(DiskRecord) != 0 ||
        body / sizeof(DiskRecord) != header_.recordCount ||
        std::fseek(file_, sizeof(header_), SEEK_SET) != 0) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

size_t
TraceFileReader::fill(TraceRecord *buf, size_t max)
{
    if (!ok() || position_ >= header_.recordCount)
        return 0;
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        max, header_.recordCount - position_));
    std::vector<DiskRecord> disk(want);
    const size_t got =
        std::fread(disk.data(), sizeof(DiskRecord), want, file_);
    size_t valid = 0;
    while (valid < got && fromDisk(disk[valid], &buf[valid]))
        ++valid;
    corrupt_ = valid < got;
    position_ += valid;
    return valid;
}

} // namespace wsearch
