/**
 * @file
 * Posting block codecs. A posting list is a sequence of
 * kPostingBlockSize-posting blocks plus a codec-independent SkipEntry
 * sidecar; the *codec* decides how one block's (doc-gap, tf) pairs
 * are laid out in the shard byte stream:
 *
 *  - VarintBlockCodec: the original delta + varint byte stream,
 *    unchanged on disk. One posting is (gap varint, tf varint,
 *    optional fixed payload). Decode is an inherently serial
 *    byte-at-a-time walk.
 *
 *  - PackedBlockCodec: bit-packed frame-of-reference blocks. Every
 *    block stores an 8-byte header (base doc id, posting count, one
 *    fixed bit width for doc-gaps and one for tfs) followed by two
 *    bit-packed payloads in a 4-lane vertical layout (see below).
 *    Bulk unpack is runtime-dispatched to AVX2, SSE2, or a portable
 *    scalar loop -- all three produce bit-identical output, the
 *    scalar path is the reference, and -DWSEARCH_NO_AVX2=ON forces
 *    it everywhere (CI proves the equivalence).
 *
 * Packed block layout (little endian):
 *
 *     u32 base      last doc id of the previous block (0 for the
 *                   first block, whose first gap is then absolute)
 *     u16 count     postings in this block (tail may be short)
 *     u8  gapBits   bit width of every doc-gap   (0..32)
 *     u8  tfBits    bit width of every tf        (0..32)
 *     16*gapBits bytes   gaps, vertically packed
 *     16*tfBits  bytes   tfs, vertically packed
 *
 * Vertical layout: value i of the (zero-padded to 128) block lives in
 * lane i%4 of row i/4; the payload is gapBits 128-bit words where
 * word k holds bits [32k, 32k+32) of each lane's 32-value stream.
 * Rows are contiguous in the output, so a 128-bit register unpacks 4
 * consecutive values with aligned-stride loads and uniform shifts --
 * no gathers, no per-width specializations. Headers make each block
 * self-describing, so a skip-table-free sequential cursor (the
 * live-merge reader) can walk packed bytes too.
 *
 * Lists encoded with the packed codec carry kPackedTailPad zero bytes
 * after the final block (outside every SkipEntry.endByte): the SIMD
 * unpack loops issue unconditional next-word loads that may read up
 * to 32 bytes past the payload of the last block.
 */

#ifndef WSEARCH_SEARCH_BLOCK_CODEC_HH
#define WSEARCH_SEARCH_BLOCK_CODEC_HH

#include <cstdint>
#include <vector>

#include "search/types.hh"

namespace wsearch {

/** On-disk posting block layout identifier (per shard/segment). */
enum class PostingCodec : uint8_t
{
    kVarint = 0, ///< delta + varint byte stream (the seed format)
    kPacked = 1, ///< bit-packed frame-of-reference blocks
};

/** SIMD slack required after a packed list's final block. */
constexpr uint32_t kPackedTailPad = 32;

/** Encoder/decoder for one posting block (see file comment). */
class BlockCodec
{
  public:
    virtual ~BlockCodec() = default;

    virtual PostingCodec id() const = 0;

    /**
     * Append one encoded block to @p out. @p docs/@p tfs hold
     * @p count postings with strictly ascending doc ids; @p base is
     * the last doc id of the previous block (0 for the first block).
     */
    virtual void encodeBlock(const DocId *docs, const uint32_t *tfs,
                             uint32_t count, DocId base,
                             std::vector<uint8_t> &out) const = 0;

    /**
     * Decode the block at [@p begin, @p end) into @p docs/@p tfs
     * (each sized >= kPostingBlockSize). @p payload_bytes is the
     * fixed per-posting payload to step over (varint streams only;
     * the packed format never carries payloads).
     */
    virtual void decodeBlock(const uint8_t *begin, const uint8_t *end,
                             DocId base, uint32_t count,
                             uint32_t payload_bytes, DocId *docs,
                             uint32_t *tfs) const = 0;

    /** Zero slack bytes a list must carry after its final block. */
    virtual uint32_t tailPadBytes() const { return 0; }

    /** The process-wide codec instance for @p id. */
    static const BlockCodec &get(PostingCodec id);
};

/**
 * Decoded header of one packed block. Packed blocks are
 * self-describing, so a sequential reader (PostingCursor, the
 * live-merge input path) can walk a packed stream without a skip
 * table: read the header, decode, advance by blockBytes.
 */
struct PackedBlockHeader
{
    DocId base = 0;        ///< last doc id of the previous block
    uint32_t count = 0;    ///< postings in the block
    uint32_t gapBits = 0;  ///< doc-gap payload bit width
    uint32_t tfBits = 0;   ///< tf payload bit width
    uint32_t blockBytes = 0; ///< header + both payloads
};

/**
 * Read the header of the packed block at @p p, which must end by
 * @p end. The bytes are untrusted: panics ("corrupt packed block")
 * unless both bit widths are <= 32, 1 <= count <= kPostingBlockSize
 * and header + payloads fit in [@p p, @p end). Runs once per block.
 */
PackedBlockHeader readPackedBlockHeader(const uint8_t *p,
                                        const uint8_t *end);

/** Decode the block at @p begin, described by its validated header
 *  @p h, into @p docs/@p tfs (each sized >= kPostingBlockSize). */
void decodePackedBlock(const uint8_t *begin, const PackedBlockHeader &h,
                       DocId *docs, uint32_t *tfs);

/**
 * Bit-unpack primitives behind PackedBlockCodec, exposed so the codec
 * equivalence tests can pin scalar == SSE2 == AVX2 directly. All
 * unpack 128 width-@p bits values from @p in (vertical layout) into
 * @p out; the SIMD variants return false when the instruction set is
 * unavailable (or compiled out via WSEARCH_NO_AVX2).
 */
namespace packed_simd {

enum class Level : uint8_t
{
    kScalar = 0,
    kSse2 = 1,
    kAvx2 = 2,
};

/** The level the runtime dispatcher selected for this process. */
Level activeLevel();

const char *levelName(Level level);

void unpackScalar(const uint8_t *in, uint32_t bits, uint32_t *out);
bool unpackSse2(const uint8_t *in, uint32_t bits, uint32_t *out);
bool unpackAvx2(const uint8_t *in, uint32_t bits, uint32_t *out);

} // namespace packed_simd

} // namespace wsearch

#endif // WSEARCH_SEARCH_BLOCK_CODEC_HH
