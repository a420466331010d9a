#include <gtest/gtest.h>

#include <set>

#include "trace/code_model.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

CodeModelConfig
smallCode()
{
    CodeModelConfig c;
    c.footprintBytes = 256 * KiB;
    c.functionBytes = 1024;
    return c;
}

TEST(CodeModel, PcsStayInFootprint)
{
    CodeModel m(smallCode(), 0x400000, 99, 1);
    for (int i = 0; i < 200000; ++i) {
        const FetchedInstr f = m.next();
        ASSERT_GE(f.pc, 0x400000u);
        ASSERT_LT(f.pc, m.codeLimit());
    }
}

TEST(CodeModel, Deterministic)
{
    CodeModel a(smallCode(), 0x400000, 99, 7), b(smallCode(), 0x400000, 99, 7);
    for (int i = 0; i < 10000; ++i) {
        const FetchedInstr fa = a.next();
        const FetchedInstr fb = b.next();
        ASSERT_EQ(fa.pc, fb.pc);
        ASSERT_EQ(fa.isBranch, fb.isBranch);
        ASSERT_EQ(fa.taken, fb.taken);
    }
}

TEST(CodeModel, BranchFractionNearConfig)
{
    CodeModelConfig c = smallCode();
    c.branchEvery = 6.0;
    CodeModel m(c, 0x400000, 99, 3);
    int branches = 0;
    const int n = 300000;
    for (int i = 0; i < n; ++i)
        if (m.next().isBranch)
            ++branches;
    const double frac = static_cast<double>(branches) / n;
    // Roughly 1/(branchEvery+1), with tolerance for loops/calls.
    EXPECT_GT(frac, 0.09);
    EXPECT_LT(frac, 0.22);
}

TEST(CodeModel, SequentialFetchBetweenBranches)
{
    CodeModel m(smallCode(), 0x400000, 99, 5);
    FetchedInstr prev = m.next();
    for (int i = 0; i < 50000; ++i) {
        const FetchedInstr cur = m.next();
        if (!prev.isBranch) {
            ASSERT_EQ(cur.pc, prev.pc + 4)
                << "non-branch must fall through";
        } else if (!prev.taken) {
            ASSERT_EQ(cur.pc, prev.pc + 4);
        }
        prev = cur;
    }
}

TEST(CodeModel, TouchesManyFunctions)
{
    CodeModel m(smallCode(), 0x400000, 99, 9);
    std::set<uint64_t> functions;
    for (int i = 0; i < 500000; ++i) {
        const uint64_t pc = m.next().pc;
        functions.insert((pc - 0x400000) / 1024);
    }
    // Zipf over 256 functions: most should be touched eventually.
    EXPECT_GT(functions.size(), 128u);
}

TEST(CodeModel, ZipfSkewsTowardsHotFunctions)
{
    CodeModelConfig c = smallCode();
    c.functionTheta = 0.9;
    CodeModel m(c, 0x400000, 99, 11);
    std::vector<uint64_t> counts(m.numFunctions(), 0);
    for (int i = 0; i < 500000; ++i)
        ++counts[(m.next().pc - 0x400000) / 1024];
    std::sort(counts.rbegin(), counts.rend());
    uint64_t top = 0, total = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        total += counts[i];
        if (i < counts.size() / 10)
            top += counts[i];
    }
    // Top 10% of functions should get well over 10% of fetches.
    EXPECT_GT(static_cast<double>(top) / total, 0.3);
}

TEST(CodeModel, FootprintScalesFunctions)
{
    CodeModelConfig small = smallCode();
    CodeModelConfig large = smallCode();
    large.footprintBytes = 4 * MiB;
    CodeModel a(small, 0x400000, 99, 1), b(large, 0x400000, 99, 1);
    EXPECT_EQ(a.numFunctions(), 256u);
    EXPECT_EQ(b.numFunctions(), 4096u);
}

TEST(CodeModel, LoopsCreateImmediateReuse)
{
    // With aggressive looping, recent PCs repeat often.
    CodeModelConfig c = smallCode();
    c.loopRepeatProb = 0.9;
    c.loopMeanIters = 8.0;
    CodeModel m(c, 0x400000, 99, 13);
    std::set<uint64_t> window;
    int repeats = 0;
    const int n = 100000;
    std::vector<uint64_t> recent;
    for (int i = 0; i < n; ++i) {
        const uint64_t pc = m.next().pc;
        if (window.count(pc))
            ++repeats;
        recent.push_back(pc);
        window.insert(pc);
        if (recent.size() > 64) {
            window.erase(recent.front());
            recent.erase(recent.begin());
        }
    }
    EXPECT_GT(static_cast<double>(repeats) / n, 0.3);
}

} // namespace
} // namespace wsearch
