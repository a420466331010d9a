#include <gtest/gtest.h>

#include <cstdio>

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
        ASSERT_EQ(back[i].target, orig[i].target);
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
    // 24-byte header, then 32-byte records with the kind byte at
    // offset 26 (after pc, addr, target and the 16-bit tid).
    std::FILE *f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, sizeof(TraceFileHeader) + 50 * 32 + 26,
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

TEST_F(TraceFileTest, MissingFileFailsGracefully)
{
    TraceFileReader r("/nonexistent/path/trace.bin");
    EXPECT_FALSE(r.ok());
    TraceRecord buf[4];
    EXPECT_EQ(r.fill(buf, 4), 0u);
}

} // namespace
} // namespace wsearch
