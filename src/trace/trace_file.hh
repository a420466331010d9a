/**
 * @file
 * Binary trace file format: capture any TraceSource (typically the
 * instrumented engine) to disk and replay it later, the workflow the
 * paper used with its Pin traces.
 *
 * Layout (version 2, little-endian): a 24-byte TraceFileHeader (magic
 * "wsrctrc2", record count, thread count, reserved word), then
 * exactly recordCount 24-byte records mirroring TraceRecord: pc (8),
 * addr (8), tid (2), kind (1), op (1), branch (1), 3 pad bytes. A
 * reader refuses a file whose magic differs (a version-1 file
 * included) or whose size disagrees with its record count.
 */

#ifndef WSEARCH_TRACE_TRACE_FILE_HH
#define WSEARCH_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "trace/record.hh"

namespace wsearch {

/** On-disk header of a wsearch trace file. */
struct TraceFileHeader
{
    static constexpr uint64_t kMagic = 0x77737263'74726332ull; // wsrctrc2
    uint64_t magic = kMagic;
    uint64_t recordCount = 0;
    uint32_t numThreads = 0;
    uint32_t reserved = 0;
};

/** Writes records to a trace file. */
class TraceFileWriter
{
  public:
    /** Opens (truncates) @p path; check ok() before use. */
    TraceFileWriter(const std::string &path, uint32_t num_threads);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    bool ok() const { return file_ != nullptr; }

    /** Append @p n records. */
    void append(const TraceRecord *recs, size_t n);

    /** Drain @p count records from @p src into the file. */
    uint64_t captureFrom(TraceSource &src, uint64_t count);

    /** Finalize the header and close; returns records written. */
    uint64_t close();

  private:
    std::FILE *file_ = nullptr;
    TraceFileHeader header_;
};

/** Replays a trace file as a TraceSource. */
class TraceFileReader : public TraceSource
{
  public:
    /** Opens @p path; check ok() (bad magic, or a size other than
     *  header + recordCount records, also fails). */
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /** False when the file failed to open, or once fill() met a
     *  record whose kind/op/branch byte is out of range: fill()
     *  returns the records before it and nothing after. */
    bool ok() const { return file_ != nullptr && !corrupt_; }
    uint64_t recordCount() const { return header_.recordCount; }
    uint32_t numThreads() const { return header_.numThreads; }

    size_t fill(TraceRecord *buf, size_t max) override;

  private:
    std::FILE *file_ = nullptr;
    TraceFileHeader header_;
    uint64_t position_ = 0;
    bool corrupt_ = false;
};

} // namespace wsearch

#endif // WSEARCH_TRACE_TRACE_FILE_HH
