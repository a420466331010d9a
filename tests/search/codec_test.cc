/**
 * Codec equivalence suite: the bit-packed frame-of-reference codec
 * must decode to exactly the same posting stream as the varint codec
 * and the plain reference vector, across block-boundary/tail/singleton
 * list shapes, under seek fuzz at every block edge, and at every SIMD
 * dispatch level (scalar is the reference; SSE2/AVX2 must be
 * bit-identical to it). Also pins the executor contract: pruned and
 * sequential engines return byte-identical top-k on a packed shard,
 * and that top-k equals the varint shard's.
 */

#include <gtest/gtest.h>

#include <vector>

#include "search/block_codec.hh"
#include "search/executor.hh"
#include "search/postings.hh"
#include "util/rng.hh"

namespace wsearch {
namespace {

/** Reference postings with gap magnitudes cycling through widths
 *  (1-bit to >16-bit) so every packed bit width gets exercised. */
std::vector<Posting>
makePostings(uint32_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Posting> out;
    out.reserve(count);
    DocId doc = 0;
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t gap;
        switch (rng.nextRange(4)) {
          case 0:
            gap = 1; // dense run: gapBits can drop to 1
            break;
          case 1:
            gap = 1 + static_cast<uint32_t>(rng.nextRange(200));
            break;
          case 2:
            gap = 1 + static_cast<uint32_t>(rng.nextRange(1 << 16));
            break;
          default:
            gap = 1 + static_cast<uint32_t>(rng.nextRange(1 << 20));
            break;
        }
        doc += gap;
        const uint32_t tf = rng.nextRange(50) == 0
            ? 1 + static_cast<uint32_t>(rng.nextRange(100000))
            : 1 + static_cast<uint32_t>(rng.nextRange(7));
        out.push_back(Posting{doc, tf});
    }
    return out;
}

/** A list built in @p codec plus a borrowed view over it. */
struct CodecList
{
    std::vector<uint8_t> bytes;
    std::vector<SkipEntry> skips;
    PostingView view;

    CodecList(const std::vector<Posting> &ps, PostingCodec codec)
    {
        PostingListBuilder b(codec);
        for (const Posting &p : ps)
            b.add(p.doc, p.tf);
        skips = b.releaseSkips(); // must precede release()
        bytes = b.release();
        view.bytes = bytes.data();
        view.size = bytes.size();
        view.skips = skips.data();
        view.numSkips = static_cast<uint32_t>(skips.size());
        view.count = static_cast<uint32_t>(ps.size());
        view.codec = codec;
    }
};

const uint32_t kShapes[] = {1,   2,   127, 128, 129,  255,
                            256, 257, 300, 384, 385,  1000};

TEST(Codec, PackedRoundTripAcrossShapes)
{
    for (const uint32_t count : kShapes) {
        const auto ps = makePostings(count, 0xabc0ull + count);
        CodecList l(ps, PostingCodec::kPacked);

        // The tail pad rides after the last block, outside endByte.
        ASSERT_FALSE(l.skips.empty());
        EXPECT_EQ(l.skips.back().endByte + kPackedTailPad,
                  l.bytes.size())
            << count;

        BlockPostingCursor c;
        c.reset(l.view, 0);
        for (uint32_t i = 0; i < count; ++i) {
            ASSERT_TRUE(c.valid()) << count << " @" << i;
            ASSERT_EQ(c.doc(), ps[i].doc) << count << " @" << i;
            ASSERT_EQ(c.tf(), ps[i].tf) << count << " @" << i;
            c.next();
        }
        EXPECT_FALSE(c.valid());
    }
}

TEST(Codec, PackedAndVarintAgreeOnSkipTables)
{
    for (const uint32_t count : kShapes) {
        const auto ps = makePostings(count, 0x5ca1eull + count);
        CodecList packed(ps, PostingCodec::kPacked);
        CodecList varint(ps, PostingCodec::kVarint);
        ASSERT_EQ(packed.skips.size(), varint.skips.size()) << count;
        for (size_t b = 0; b < packed.skips.size(); ++b) {
            // endByte differs by construction (different layouts);
            // the logical block metadata must not.
            EXPECT_EQ(packed.skips[b].lastDoc, varint.skips[b].lastDoc);
            EXPECT_EQ(packed.skips[b].count, varint.skips[b].count);
            EXPECT_EQ(packed.skips[b].maxTf, varint.skips[b].maxTf);
        }
        BlockPostingCursor cp, cv;
        cp.reset(packed.view, 0);
        cv.reset(varint.view, 0);
        for (uint32_t i = 0; i < count; ++i) {
            ASSERT_TRUE(cp.valid() && cv.valid()) << count << " " << i;
            ASSERT_EQ(cp.doc(), cv.doc());
            ASSERT_EQ(cp.tf(), cv.tf());
            cp.next();
            cv.next();
        }
        EXPECT_FALSE(cp.valid());
        EXPECT_FALSE(cv.valid());
    }
}

TEST(Codec, SeekFuzzAtEveryBlockBoundary)
{
    const auto ps = makePostings(385, 0xf00dull); // 128+128+128+1
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        CodecList l(ps, codec);
        // Every posting adjacent to a block edge, +-1 in doc space.
        for (uint32_t edge = 0; edge < 385; ++edge) {
            if ((edge + 1) % kPostingBlockSize > 2 &&
                edge % kPostingBlockSize > 1)
                continue;
            for (const int delta : {-1, 0, 1}) {
                const DocId target = static_cast<DocId>(
                    static_cast<int64_t>(ps[edge].doc) + delta);
                // Reference: first posting with doc >= target.
                size_t want = 0;
                while (want < ps.size() && ps[want].doc < target)
                    ++want;
                BlockPostingCursor c;
                c.reset(l.view, 0);
                c.seek(target);
                if (want == ps.size()) {
                    EXPECT_FALSE(c.valid());
                } else {
                    ASSERT_TRUE(c.valid())
                        << "edge " << edge << " delta " << delta;
                    EXPECT_EQ(c.doc(), ps[want].doc);
                    EXPECT_EQ(c.tf(), ps[want].tf);
                }
            }
        }
    }
}

TEST(Codec, MonotoneSeekFuzzMatchesReference)
{
    const auto ps = makePostings(1000, 0xf0221ull);
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        CodecList l(ps, codec);
        for (uint64_t round = 0; round < 20; ++round) {
            Rng rng(0x9999ull + round);
            BlockPostingCursor c;
            c.reset(l.view, 0);
            size_t ref = 0;
            DocId target = 0;
            while (true) {
                target += 1 + static_cast<DocId>(rng.nextRange(
                    ps.back().doc / 40));
                while (ref < ps.size() && ps[ref].doc < target)
                    ++ref;
                c.seek(target);
                if (ref == ps.size()) {
                    EXPECT_FALSE(c.valid());
                    break;
                }
                ASSERT_TRUE(c.valid()) << "target " << target;
                ASSERT_EQ(c.doc(), ps[ref].doc);
                ASSERT_EQ(c.tf(), ps[ref].tf);
                // Interleave a few next() steps to move off the edge.
                for (int s = 0; s < 3 && c.valid(); ++s) {
                    c.next();
                    ++ref;
                    if (ref < ps.size() && c.valid()) {
                        ASSERT_EQ(c.doc(), ps[ref].doc);
                        target = c.doc();
                    }
                }
                if (!c.valid() || ref >= ps.size())
                    break;
            }
        }
    }
}

TEST(Codec, UnpackLevelsBitIdentical)
{
    // Random payloads are valid packed payloads for *some* value
    // sequence, so comparing unpack outputs directly pins the SIMD
    // kernels to the scalar reference for every width.
    Rng rng(0xdec0deull);
    const auto level = packed_simd::activeLevel();
    SCOPED_TRACE(packed_simd::levelName(level));
    for (uint32_t bits = 0; bits <= 32; ++bits) {
        // Payload plus the SIMD over-read slack.
        std::vector<uint8_t> in(16 * bits + kPackedTailPad);
        for (auto &b : in)
            b = static_cast<uint8_t>(rng.nextU64());
        alignas(32) uint32_t ref[kPostingBlockSize];
        alignas(32) uint32_t got[kPostingBlockSize];
        packed_simd::unpackScalar(in.data(), bits, ref);
        if (packed_simd::unpackSse2(in.data(), bits, got)) {
            for (uint32_t i = 0; i < kPostingBlockSize; ++i)
                ASSERT_EQ(got[i], ref[i]) << "sse2 w" << bits
                                          << " @" << i;
        }
        if (packed_simd::unpackAvx2(in.data(), bits, got)) {
            for (uint32_t i = 0; i < kPostingBlockSize; ++i)
                ASSERT_EQ(got[i], ref[i]) << "avx2 w" << bits
                                          << " @" << i;
        }
    }
#if defined(__x86_64__) && !defined(WSEARCH_NO_AVX2)
    // x86 builds must not silently fall back to scalar.
    EXPECT_NE(level, packed_simd::Level::kScalar);
#else
    EXPECT_EQ(level, packed_simd::Level::kScalar);
#endif
}

TEST(Codec, SequentialCursorWalksPackedBlockwise)
{
    for (const uint32_t count : kShapes) {
        const auto ps = makePostings(count, 0xcafeull + count);
        CodecList l(ps, PostingCodec::kPacked);
        PostingCursor c(l.bytes.data(),
                        l.bytes.data() + l.bytes.size(), count, 0,
                        PostingCodec::kPacked);
        for (uint32_t i = 0; i < count; ++i) {
            ASSERT_TRUE(c.valid()) << count << " @" << i;
            ASSERT_EQ(c.doc(), ps[i].doc);
            ASSERT_EQ(c.tf(), ps[i].tf);
            // Consumption is block-granular: always a block endByte.
            const size_t consumed = c.bytesConsumed(l.bytes.data());
            EXPECT_EQ(consumed,
                      l.skips[i / kPostingBlockSize].endByte);
            c.next();
        }
        EXPECT_FALSE(c.valid());
        // Fully consumed = everything but the tail pad.
        EXPECT_EQ(c.bytesConsumed(l.bytes.data()),
                  l.bytes.size() - kPackedTailPad);
    }
}

TEST(Codec, SequentialCursorSeeksPackedStream)
{
    const auto ps = makePostings(300, 0x5eed7ull);
    CodecList l(ps, PostingCodec::kPacked);
    PostingCursor c(l.bytes.data(), l.bytes.data() + l.bytes.size(),
                    300, 0, PostingCodec::kPacked);
    c.seek(ps[200].doc);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(c.doc(), ps[200].doc);
    c.seek(ps[200].doc + 1);
    ASSERT_TRUE(c.valid());
    EXPECT_EQ(c.doc(), ps[201].doc);
    c.seek(ps.back().doc + 1);
    EXPECT_FALSE(c.valid());
}

/** Walk @p l to its end through the skip-driven block cursor. */
void
walkBlockCursor(const CodecList &l)
{
    BlockPostingCursor c;
    c.reset(l.view, 0);
    while (c.valid())
        c.next();
}

/** Walk @p l to its end through the sequential (header-driven)
 *  cursor. */
void
walkSequentialCursor(const CodecList &l)
{
    PostingCursor c(l.bytes.data(), l.bytes.data() + l.bytes.size(),
                    l.view.count, 0, PostingCodec::kPacked);
    while (c.valid())
        c.next();
}

/** A 300-posting packed list; the second block's header starts at
 *  skips[0].endByte (u32 base, u16 count, u8 gapBits, u8 tfBits). */
CodecList
packedList()
{
    return CodecList(makePostings(300, 0xbadb10cull),
                     PostingCodec::kPacked);
}

TEST(CodecDeathTest, PackedGapBitsAbove32Panics)
{
    CodecList l = packedList();
    l.bytes[l.skips[0].endByte + 6] = 33;
    EXPECT_DEATH(walkBlockCursor(l), "corrupt packed block");
    EXPECT_DEATH(walkSequentialCursor(l), "corrupt packed block");
}

TEST(CodecDeathTest, PackedCountAbove128Panics)
{
    CodecList l = packedList();
    l.bytes[l.skips[0].endByte + 4] = 129; // u16 count = 129
    l.bytes[l.skips[0].endByte + 5] = 0;
    EXPECT_DEATH(walkBlockCursor(l), "corrupt packed block");
    EXPECT_DEATH(walkSequentialCursor(l), "corrupt packed block");
}

MaterializedIndex
makeIndex(uint64_t seed, PostingCodec codec)
{
    CorpusConfig c;
    c.numDocs = 600;
    c.vocabSize = 300;
    c.avgDocLen = 60;
    c.seed = seed;
    CorpusGenerator corpus(c);
    return MaterializedIndex(corpus, codec);
}

SearchResponse
run(QueryExecutor &ex, const Query &q, ExecAlgo algo)
{
    SearchRequest req;
    req.query = q;
    req.algo = algo;
    return ex.execute(req);
}

TEST(Codec, ExecutorEquivalenceOnPackedShard)
{
    // Four engines -- packed pruned, packed sequential, varint
    // pruned, varint sequential -- one result set.
    MaterializedIndex packed =
        makeIndex(0xc0de5ull, PostingCodec::kPacked);
    MaterializedIndex varint =
        makeIndex(0xc0de5ull, PostingCodec::kVarint);
    EXPECT_EQ(packed.codec(), PostingCodec::kPacked);
    NullTouchSink sink;
    QueryExecutor exp(packed, 0, &sink);
    QueryExecutor exv(varint, 0, &sink);
    QueryGenerator::Config qc;
    qc.vocabSize = packed.numTerms();
    qc.distinctQueries = 4096;
    qc.seed = 0x5eedull;
    QueryGenerator gen(qc);
    uint64_t packed_blocks = 0;
    for (uint32_t n = 0; n < 40; ++n) {
        Query q = gen.materialize(n);
        for (const uint32_t k : {1u, 10u, 100u}) {
            q.topK = k;
            const auto pp = run(exp, q, ExecAlgo::kAuto);
            packed_blocks += exp.lastStats().packedBlocksDecoded;
            EXPECT_EQ(exp.lastStats().packedBlocksDecoded,
                      exp.lastStats().blocksDecoded);
            const auto pse = run(exp, q, ExecAlgo::kSequential);
            const auto vp = run(exv, q, ExecAlgo::kAuto);
            EXPECT_EQ(exv.lastStats().packedBlocksDecoded, 0u);
            const auto vse = run(exv, q, ExecAlgo::kSequential);
            ASSERT_EQ(pp.docs.size(), vse.docs.size());
            for (size_t i = 0; i < pp.docs.size(); ++i) {
                // Bit-identical across engines AND codecs.
                ASSERT_EQ(pp.docs[i].doc, vse.docs[i].doc);
                ASSERT_EQ(pp.docs[i].score, vse.docs[i].score);
                ASSERT_EQ(pse.docs[i].doc, vse.docs[i].doc);
                ASSERT_EQ(pse.docs[i].score, vse.docs[i].score);
                ASSERT_EQ(vp.docs[i].doc, vse.docs[i].doc);
                ASSERT_EQ(vp.docs[i].score, vse.docs[i].score);
            }
        }
    }
    EXPECT_GT(packed_blocks, 0u);
}

} // namespace
} // namespace wsearch
