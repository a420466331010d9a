/**
 * @file
 * Posting lists: (docid gap, term frequency) pairs organized in blocks
 * of kPostingBlockSize postings, the core of the index shard. How one
 * block is laid out in the byte stream is the shard's *codec* (see
 * block_codec.hh): the original delta + varint stream, or bit-packed
 * frame-of-reference blocks with SIMD bulk unpack. A codec-independent
 * sidecar skip table (one SkipEntry per block: last doc id, end byte
 * offset, count, max tf) lets a cursor seek in O(blocks) without
 * decoding skipped blocks and gives the executor per-block score upper
 * bounds for dynamic pruning. The skip table is *metadata* (heap
 * segment); only the encoded posting bytes belong to the shard
 * segment.
 *
 * Two backends expose the same cursor interfaces:
 *
 *  - MaterializedPostings: real encoded bytes built by the indexer
 *    (used by the functional engine and all correctness tests).
 *  - Procedural postings (see index.hh): deterministic content
 *    generated on demand, so a nominal multi-GiB shard can be walked
 *    without materializing it -- the substitution that stands in for
 *    the paper's proprietary 100s-of-GiB production shards. Always
 *    varint (the generator emits the stream byte-wise).
 */

#ifndef WSEARCH_SEARCH_POSTINGS_HH
#define WSEARCH_SEARCH_POSTINGS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "search/block_codec.hh"
#include "search/types.hh"
#include "search/varint.hh"
#include "util/logging.hh"

namespace wsearch {

/** Postings per block (one SkipEntry per block). */
constexpr uint32_t kPostingBlockSize = 128;

/** One decoded posting. */
struct Posting
{
    DocId doc = kInvalidDoc;
    uint32_t tf = 0;
};

/**
 * Per-block skip metadata. Block b spans encoded bytes
 * [b == 0 ? 0 : skips[b-1].endByte, skips[b].endByte) and decodes
 * against base doc id (b == 0 ? 0 : skips[b-1].lastDoc); a base of 0
 * makes the first block's first gap the absolute doc id.
 */
struct SkipEntry
{
    DocId lastDoc = 0;    ///< last doc id in the block
    uint32_t endByte = 0; ///< one past the block's final encoded byte
    uint32_t count = 0;   ///< postings in the block (tail may be short)
    uint32_t maxTf = 0;   ///< max term frequency in the block
};

/**
 * Borrowed, zero-copy view of one term's encoded postings plus its
 * skip table. Valid for the lifetime of whatever owns the storage
 * (the MaterializedIndex, or a per-executor scratch buffer for the
 * decode-on-demand procedural path). For codec kPacked, `size`
 * includes the kPackedTailPad slack after the final block.
 */
struct PostingView
{
    const uint8_t *bytes = nullptr;
    size_t size = 0;
    const SkipEntry *skips = nullptr;
    uint32_t numSkips = 0;
    uint32_t count = 0; ///< total postings (== docFreq)
    PostingCodec codec = PostingCodec::kVarint;
};

/**
 * Canonical per-block skip-metadata accumulator. Both skip-table
 * producers -- PostingListBuilder (the indexer) and buildSkipEntries
 * (the decode-on-demand rebuild) -- run their postings through this
 * one accumulator, so the two paths cannot disagree on block
 * boundaries, counts, or the tail block's maxTf (regression: a tail
 * of exactly one posting).
 */
class SkipTableBuilder
{
  public:
    /** Record one posting of the current block. */
    void
    note(DocId doc, uint32_t tf)
    {
        lastDoc_ = doc;
        if (tf > maxTf_)
            maxTf_ = tf;
        ++blockCount_;
    }

    bool blockFull() const { return blockCount_ == kPostingBlockSize; }
    uint32_t blockCount() const { return blockCount_; }

    /** Close the current block, whose bytes end at @p end_byte. */
    void
    endBlock(uint32_t end_byte)
    {
        wsearch_assert(blockCount_ > 0);
        entries_.push_back(
            SkipEntry{lastDoc_, end_byte, blockCount_, maxTf_});
        blockCount_ = 0;
        maxTf_ = 0;
    }

    std::vector<SkipEntry>
    release()
    {
        wsearch_assert(blockCount_ == 0);
        return std::move(entries_);
    }

  private:
    std::vector<SkipEntry> entries_;
    DocId lastDoc_ = 0;
    uint32_t blockCount_ = 0;
    uint32_t maxTf_ = 0;
};

/**
 * Builder for an encoded posting list (ascending doc ids) in the
 * given codec. Varint lists encode eagerly, so bytes() is complete
 * after every add(); packed lists encode a block at a time, so
 * bytes() covers finished blocks only until releaseSkips() flushes
 * the tail. releaseSkips() must precede release().
 */
class PostingListBuilder
{
  public:
    explicit PostingListBuilder(
        PostingCodec codec = PostingCodec::kVarint)
        : codec_(&BlockCodec::get(codec))
    {
    }

    /** Append a posting; doc ids must be strictly ascending. */
    void
    add(DocId doc, uint32_t tf)
    {
        wsearch_assert(count_ == 0 || doc > lastDoc_);
        if (codec_->id() == PostingCodec::kVarint) {
            // One varint posting is self-delimiting: encode eagerly
            // so bytes() stays live mid-block (byte stream identical
            // to the pre-codec format).
            codec_->encodeBlock(&doc, &tf, 1, count_ == 0 ? 0 : lastDoc_,
                                bytes_);
        } else {
            const uint32_t i = skips_.blockCount();
            docBuf_[i] = doc;
            tfBuf_[i] = tf;
        }
        lastDoc_ = doc;
        ++count_;
        skips_.note(doc, tf);
        if (skips_.blockFull())
            finishBlock();
    }

    uint32_t count() const { return count_; }
    PostingCodec codec() const { return codec_->id(); }

    /** Encoded bytes so far (packed: finished blocks only). */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    /**
     * The encoded list. Call releaseSkips() first -- it flushes the
     * tail block -- after which this appends the codec's tail pad
     * (SIMD over-read slack, outside every SkipEntry.endByte) and
     * moves the bytes out.
     */
    std::vector<uint8_t>
    release()
    {
        wsearch_assert(skips_.blockCount() == 0);
        if (count_ > 0)
            bytes_.insert(bytes_.end(), codec_->tailPadBytes(), 0u);
        return std::move(bytes_);
    }

    /**
     * Skip table for the postings added so far (flushes the tail
     * block). Call before release(): the tail entry's endByte is the
     * current encoded length, which moves out with the bytes.
     */
    std::vector<SkipEntry>
    releaseSkips()
    {
        if (skips_.blockCount() > 0)
            finishBlock();
        return skips_.release();
    }

  private:
    void
    finishBlock()
    {
        if (codec_->id() != PostingCodec::kVarint)
            codec_->encodeBlock(docBuf_, tfBuf_, skips_.blockCount(),
                                base_, bytes_);
        base_ = lastDoc_;
        skips_.endBlock(static_cast<uint32_t>(bytes_.size()));
    }

    const BlockCodec *codec_;
    std::vector<uint8_t> bytes_;
    SkipTableBuilder skips_;
    DocId docBuf_[kPostingBlockSize];
    uint32_t tfBuf_[kPostingBlockSize];
    DocId lastDoc_ = 0;
    DocId base_ = 0; ///< last doc of the previous finished block
    uint32_t count_ = 0;
};

/**
 * Build the skip table for an already-encoded varint posting stream
 * (the decode-on-demand path for shards that cannot store a sidecar,
 * e.g. ProceduralIndex). One sequential decode pass through the same
 * SkipTableBuilder the indexer uses; appends into @p out.
 */
inline void
buildSkipEntries(const uint8_t *begin, const uint8_t *end,
                 uint32_t count, uint32_t payload_bytes,
                 std::vector<SkipEntry> &out)
{
    SkipTableBuilder stb;
    const uint8_t *p = begin;
    DocId doc = 0;
    for (uint32_t i = 0; i < count && p < end; ++i) {
        const uint64_t gap = varintDecode(p, end);
        const uint64_t tf = varintDecode(p, end);
        doc += static_cast<DocId>(gap);
        p += payload_bytes <= static_cast<size_t>(end - p)
            ? payload_bytes : static_cast<size_t>(end - p);
        stb.note(doc, static_cast<uint32_t>(tf));
        if (stb.blockFull() || i + 1 == count)
            stb.endBlock(static_cast<uint32_t>(p - begin));
    }
    out = stb.release();
}

/**
 * Sequential decoder over encoded posting bytes. Varint streams are
 * walked a posting at a time; packed streams a block at a time via
 * the self-describing block headers (no skip table needed), which is
 * also what the live-merge reader uses.
 */
class PostingCursor
{
  public:
    PostingCursor() = default;

    /**
     * @param payload_bytes fixed per-posting payload (positions,
     *        static features, ...) following the tf; skipped on
     *        decode but part of the shard layout (varint only)
     */
    PostingCursor(const uint8_t *begin, const uint8_t *end,
                  uint32_t count, uint32_t payload_bytes = 0,
                  PostingCodec codec = PostingCodec::kVarint)
    {
        reset(begin, end, count, payload_bytes, codec);
    }

    /** Rebind to a new byte range (arena reuse across queries). */
    void
    reset(const uint8_t *begin, const uint8_t *end, uint32_t count,
          uint32_t payload_bytes = 0,
          PostingCodec codec = PostingCodec::kVarint)
    {
        p_ = begin;
        end_ = end;
        remaining_ = count;
        payloadBytes_ = payload_bytes;
        codec_ = codec;
        wsearch_assert(codec_ == PostingCodec::kVarint ||
                       payload_bytes == 0);
        blockLen_ = 0;
        idx_ = 0;
        emitted_ = 0;
        current_ = Posting{kInvalidDoc, 0};
        advance();
    }

    bool valid() const { return current_.doc != kInvalidDoc; }
    const Posting &posting() const { return current_; }
    DocId doc() const { return current_.doc; }
    uint32_t tf() const { return current_.tf; }

    /**
     * Bytes consumed so far (for shard-access instrumentation).
     * Block-granular for packed streams: a whole block is charged
     * when it is decoded.
     */
    size_t
    bytesConsumed(const uint8_t *begin) const
    {
        return static_cast<size_t>(p_ - begin);
    }

    /**
     * Postings decoded so far (exact and codec-independent, unlike
     * bytesConsumed which is block-granular for packed streams).
     */
    uint64_t postingsConsumed() const { return emitted_; }

    /** Step to the next posting. */
    void
    next()
    {
        advance();
    }

    /** Advance to the first posting with doc >= @p target. */
    void
    seek(DocId target)
    {
        while (valid() && current_.doc < target)
            advance();
    }

  private:
    void
    advance()
    {
        if (codec_ == PostingCodec::kPacked) {
            advancePacked();
            return;
        }
        if (remaining_ == 0 || p_ >= end_) {
            current_ = Posting{};
            return;
        }
        const uint64_t gap = varintDecode(p_, end_);
        const uint64_t tf = varintDecode(p_, end_);
        current_.doc = current_.doc == kInvalidDoc
            ? static_cast<DocId>(gap)
            : current_.doc + static_cast<DocId>(gap);
        current_.tf = static_cast<uint32_t>(tf);
        p_ += payloadBytes_ <= static_cast<size_t>(end_ - p_)
            ? payloadBytes_ : static_cast<size_t>(end_ - p_);
        --remaining_;
        ++emitted_;
    }

    void
    advancePacked()
    {
        if (idx_ + 1 < blockLen_) {
            ++idx_;
            current_ = Posting{docs_[idx_], tfs_[idx_]};
            ++emitted_;
            return;
        }
        if (remaining_ == 0 || p_ >= end_) {
            current_ = Posting{};
            return;
        }
        const PackedBlockHeader h = readPackedBlockHeader(p_, end_);
        wsearch_assert(h.count <= remaining_);
        decodePackedBlock(p_, h, docs_, tfs_);
        p_ += h.blockBytes;
        remaining_ -= h.count;
        blockLen_ = h.count;
        idx_ = 0;
        current_ = Posting{docs_[0], tfs_[0]};
        ++emitted_;
    }

    const uint8_t *p_ = nullptr;
    const uint8_t *end_ = nullptr;
    uint32_t remaining_ = 0;
    uint32_t payloadBytes_ = 0;
    PostingCodec codec_ = PostingCodec::kVarint;
    uint64_t emitted_ = 0; ///< postings decoded since reset()
    Posting current_{kInvalidDoc, 0};

    // Packed-stream block buffer (unused for varint).
    uint32_t blockLen_ = 0;
    uint32_t idx_ = 0;
    alignas(32) DocId docs_[kPostingBlockSize];
    alignas(32) uint32_t tfs_[kPostingBlockSize];
};

/**
 * Skip-aware block decoder. Decodes one block at a time through the
 * view's codec (bulk into an internal buffer); seek() walks the skip
 * table forward in O(blocks), only decodes the landing block, and
 * then gallops within it (branchless binary search over the unpacked
 * doc array), so skipped blocks are never touched. After any call
 * that may decode, the caller can collect the newly decoded byte
 * region (takeDecodedBlock) and the skip entries scanned
 * (takeSkipScan) for touch instrumentation -- at most one block is
 * decoded per cursor call.
 */
class BlockPostingCursor
{
  public:
    BlockPostingCursor() = default;

    /** Rebind to @p view; decodes the first block. */
    void
    reset(const PostingView &view, uint32_t payload_bytes)
    {
        view_ = view;
        codec_ = &BlockCodec::get(view.codec);
        payloadBytes_ = payload_bytes;
        block_ = 0;
        idx_ = 0;
        blockLen_ = 0;
        decodedBegin_ = decodedEnd_ = 0;
        decodedCount_ = 0;
        hasDecoded_ = false;
        scanBegin_ = scanEnd_ = 0;
        if (view_.numSkips > 0)
            decodeBlock(0);
    }

    bool valid() const { return idx_ < blockLen_; }
    DocId doc() const { return docs_[idx_]; }
    uint32_t tf() const { return tfs_[idx_]; }
    PostingCodec codec() const { return view_.codec; }

    /** Step to the next posting (decodes the next block at an edge). */
    void
    next()
    {
        if (!valid())
            return;
        ++idx_;
        if (idx_ == blockLen_ && block_ + 1 < view_.numSkips)
            decodeBlock(block_ + 1);
    }

    /**
     * Advance to the first posting with doc >= @p target: scan skip
     * entries forward to the first block whose lastDoc covers the
     * target (skipped blocks are never decoded), then gallop inside
     * the decoded block.
     */
    void
    seek(DocId target)
    {
        if (!valid() || docs_[idx_] >= target)
            return;
        if (view_.skips[block_].lastDoc < target) {
            // O(blocks) forward scan of the skip table.
            uint32_t b = block_ + 1;
            scanBegin_ = b;
            while (b < view_.numSkips &&
                   view_.skips[b].lastDoc < target)
                ++b;
            // The landing entry's lastDoc was read too.
            scanEnd_ = b < view_.numSkips ? b + 1 : view_.numSkips;
            if (b >= view_.numSkips) { // past the last block: exhausted
                idx_ = blockLen_;
                return;
            }
            decodeBlock(b);
        }
        // In-block gallop: branchless lower bound over the decoded
        // doc ids (the comparison result feeds a conditional move,
        // not a branch -- seek targets are adversarially unsorted
        // under MaxScore, so the branch would be unpredictable).
        uint32_t lo = idx_;
        uint32_t n = blockLen_ - idx_;
        while (n > 1) {
            const uint32_t half = n / 2;
            lo += docs_[lo + half - 1] < target ? half : 0;
            n -= half;
        }
        idx_ = lo + (docs_[lo] < target ? 1 : 0);
        // lastDoc >= target guarantees an in-block hit.
        wsearch_assert(idx_ < blockLen_);
    }

    /** Current block's skip entry (for block-max pruning). */
    const SkipEntry &
    blockMeta() const
    {
        return view_.skips[block_];
    }

    /**
     * Newly decoded byte region since the last call; true at most once
     * per decode. @p postings receives the block's posting count.
     */
    bool
    takeDecodedBlock(uint64_t &byte_begin, uint64_t &byte_end,
                     uint32_t &postings)
    {
        if (!hasDecoded_)
            return false;
        byte_begin = decodedBegin_;
        byte_end = decodedEnd_;
        postings = decodedCount_;
        hasDecoded_ = false;
        return true;
    }

    /** Skip-table entries scanned by the last seek (metadata reads). */
    bool
    takeSkipScan(uint32_t &first, uint32_t &count)
    {
        if (scanBegin_ == scanEnd_)
            return false;
        first = scanBegin_;
        count = scanEnd_ - scanBegin_;
        scanBegin_ = scanEnd_ = 0;
        return true;
    }

  private:
    void
    decodeBlock(uint32_t b)
    {
        const SkipEntry &e = view_.skips[b];
        const uint32_t begin = b == 0 ? 0 : view_.skips[b - 1].endByte;
        const DocId base = b == 0 ? 0 : view_.skips[b - 1].lastDoc;
        codec_->decodeBlock(view_.bytes + begin,
                            view_.bytes + e.endByte, base, e.count,
                            payloadBytes_, docs_, tfs_);
        block_ = b;
        idx_ = 0;
        blockLen_ = e.count;
        decodedBegin_ = begin;
        decodedEnd_ = e.endByte;
        decodedCount_ = e.count;
        hasDecoded_ = true;
    }

    PostingView view_;
    const BlockCodec *codec_ = nullptr;
    uint32_t payloadBytes_ = 0;
    uint32_t block_ = 0;    ///< current block index
    uint32_t idx_ = 0;      ///< position within the decoded block
    uint32_t blockLen_ = 0; ///< postings decoded in the current block
    alignas(32) DocId docs_[kPostingBlockSize];
    alignas(32) uint32_t tfs_[kPostingBlockSize];

    // Instrumentation hand-off (drained by take*()).
    uint64_t decodedBegin_ = 0;
    uint64_t decodedEnd_ = 0;
    uint32_t decodedCount_ = 0;
    bool hasDecoded_ = false;
    uint32_t scanBegin_ = 0;
    uint32_t scanEnd_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_POSTINGS_HH
