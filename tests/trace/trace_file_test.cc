#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "memsim/simulator.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace wsearch {
namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "wsearch_trace_test.bin";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p = WorkloadProfile::s1Leaf();
    p.code.footprintBytes = 64 * KiB;
    p.heapWorkingSetBytes = 1 * MiB;
    p.shardSpanBytes = 64 * MiB;
    return p;
}

TEST_F(TraceFileTest, RoundTripExact)
{
    SyntheticSearchTrace src(tinyProfile(), 2);
    std::vector<TraceRecord> orig(10000);
    src.fill(orig.data(), orig.size());

    {
        TraceFileWriter w(path_, 2);
        ASSERT_TRUE(w.ok());
        w.append(orig.data(), orig.size());
        EXPECT_EQ(w.close(), orig.size());
    }

    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.recordCount(), orig.size());
    EXPECT_EQ(r.numThreads(), 2u);
    std::vector<TraceRecord> back(orig.size());
    size_t got = 0;
    while (got < back.size())
        got += r.fill(back.data() + got, back.size() - got);
    for (size_t i = 0; i < orig.size(); ++i) {
        ASSERT_EQ(back[i].pc, orig[i].pc) << i;
        ASSERT_EQ(back[i].addr, orig[i].addr);
        ASSERT_EQ(back[i].tid, orig[i].tid);
        ASSERT_EQ(back[i].kind, orig[i].kind);
        ASSERT_EQ(back[i].op, orig[i].op);
        ASSERT_EQ(back[i].branch, orig[i].branch);
    }
}

TEST_F(TraceFileTest, CaptureFromSource)
{
    SyntheticSearchTrace src(tinyProfile(), 1);
    TraceFileWriter w(path_, 1);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.captureFrom(src, 5000), 5000u);
    w.close();
    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.recordCount(), 5000u);
}

TEST_F(TraceFileTest, ReaderExhausts)
{
    {
        SyntheticSearchTrace src(tinyProfile(), 1);
        TraceFileWriter w(path_, 1);
        w.captureFrom(src, 100);
    }
    TraceFileReader r(path_);
    TraceRecord buf[64];
    size_t total = 0, got = 0;
    while ((got = r.fill(buf, 64)) > 0)
        total += got;
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(r.fill(buf, 64), 0u);
}

TEST_F(TraceFileTest, ReplayEqualsLiveSource)
{
    // Capturing and replaying must be bit-identical to the live
    // stream -- the property that makes traces reusable artifacts.
    SyntheticSearchTrace live(tinyProfile(), 4);
    {
        SyntheticSearchTrace src(tinyProfile(), 4);
        TraceFileWriter w(path_, 4);
        w.captureFrom(src, 20000);
    }
    TraceFileReader replay(path_);
    TraceRecord a[512], b[512];
    for (int chunk = 0; chunk < 39; ++chunk) {
        live.fill(a, 512);
        ASSERT_EQ(replay.fill(b, 512), 512u);
        for (int i = 0; i < 512; ++i) {
            ASSERT_EQ(a[i].pc, b[i].pc);
            ASSERT_EQ(a[i].addr, b[i].addr);
        }
    }
}

TEST_F(TraceFileTest, StopsCleanlyAtCorruptKindByte)
{
    {
        SyntheticSearchTrace src(tinyProfile(), 2);
        TraceFileWriter w(path_, 2);
        ASSERT_EQ(w.captureFrom(src, 100), 100u);
    }
    // Flip record 50's kind byte past the AccessKind range. Layout:
    // 24-byte header, then 24-byte records with the kind byte at
    // offset 18 (after pc, addr and the 16-bit tid).
    std::FILE *f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, sizeof(TraceFileHeader) + 50 * 24 + 18,
                         SEEK_SET),
              0);
    const uint8_t bad_kind = 7;
    ASSERT_EQ(std::fwrite(&bad_kind, 1, 1, f), 1u);
    std::fclose(f);

    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    // Replaying through a hierarchy must never see the bad record:
    // its kind would index the per-kind level counters out of bounds.
    HierarchySpec h;
    h.numCores = 2;
    CacheHierarchy hier(h);
    const SimResult res = runTrace(r, hier, 0, 100);
    EXPECT_EQ(res.instructions, 50u);
    EXPECT_FALSE(r.ok());
    TraceRecord buf[4];
    EXPECT_EQ(r.fill(buf, 4), 0u);
}

TEST_F(TraceFileTest, RejectsBadMagic)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "not a trace file";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    TraceFileReader r(path_);
    EXPECT_FALSE(r.ok());
}

TEST_F(TraceFileTest, RejectsVersion1Magic)
{
    // A file in the retired 32-byte-record layout: its header is
    // intact and its size matches its count, but the magic is v1's.
    {
        SyntheticSearchTrace src(tinyProfile(), 1);
        TraceFileWriter w(path_, 1);
        ASSERT_EQ(w.captureFrom(src, 96), 96u);
    }
    TraceFileHeader v1;
    v1.magic = 0x77737263'74726331ull; // wsrctrc1
    v1.recordCount = 72;               // 96 * 24 B == 72 * 32 B
    v1.numThreads = 1;
    std::FILE *f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(&v1, sizeof(v1), 1, f), 1u);
    std::fclose(f);
    TraceFileReader r(path_);
    EXPECT_FALSE(r.ok());
    TraceRecord buf[4];
    EXPECT_EQ(r.fill(buf, 4), 0u);
}

TEST_F(TraceFileTest, RejectsTruncatedFile)
{
    // The header claims more records than the file holds: refused at
    // open, never read past the end.
    {
        SyntheticSearchTrace src(tinyProfile(), 1);
        TraceFileWriter w(path_, 1);
        ASSERT_EQ(w.captureFrom(src, 100), 100u);
    }
    std::vector<char> bytes(sizeof(TraceFileHeader) + 100 * 24);
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
    for (const size_t cut : {size_t{1}, size_t{24}, size_t{24 * 40}}) {
        f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() - cut, f);
        std::fclose(f);
        TraceFileReader r(path_);
        EXPECT_FALSE(r.ok()) << cut;
        TraceRecord buf[4];
        EXPECT_EQ(r.fill(buf, 4), 0u) << cut;
    }
}

TEST_F(TraceFileTest, RejectsPaddedFile)
{
    // Trailing bytes after the last counted record, a partial record
    // or whole ones, mean the header's count cannot be trusted.
    {
        SyntheticSearchTrace src(tinyProfile(), 1);
        TraceFileWriter w(path_, 1);
        ASSERT_EQ(w.captureFrom(src, 100), 100u);
    }
    // Appends 1 byte, then 23 more: one whole uncounted record.
    for (const size_t pad : {size_t{1}, size_t{23}}) {
        std::FILE *f = std::fopen(path_.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const std::vector<char> zeros(pad, 0);
        std::fwrite(zeros.data(), 1, pad, f);
        std::fclose(f);
        TraceFileReader r(path_);
        EXPECT_FALSE(r.ok()) << pad;
        TraceRecord buf[4];
        EXPECT_EQ(r.fill(buf, 4), 0u) << pad;
    }
}

TEST_F(TraceFileTest, MissingFileFailsGracefully)
{
    TraceFileReader r("/nonexistent/path/trace.bin");
    EXPECT_FALSE(r.ok());
    TraceRecord buf[4];
    EXPECT_EQ(r.fill(buf, 4), 0u);
}

} // namespace
} // namespace wsearch
