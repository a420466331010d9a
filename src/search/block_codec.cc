#include "search/block_codec.hh"

#include <cstring>

#include "search/postings.hh"
#include "search/varint.hh"
#include "util/logging.hh"

#if defined(__x86_64__) && !defined(WSEARCH_NO_AVX2)
#define WSEARCH_PACKED_X86 1
#include <immintrin.h>
#endif

namespace wsearch {

namespace {

// ---------------------------------------------------------------------
// Little-endian scalar load/store helpers (memcpy keeps them legal
// under strict aliasing; the format is in-memory only).
// ---------------------------------------------------------------------

inline uint32_t
loadLe32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline void
storeLe32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, 4);
}

inline uint16_t
loadLe16(const uint8_t *p)
{
    uint16_t v;
    std::memcpy(&v, p, 2);
    return v;
}

inline void
storeLe16(uint8_t *p, uint16_t v)
{
    std::memcpy(p, &v, 2);
}

/** Bits needed to represent @p v (0 for 0). */
inline uint32_t
bitWidth(uint32_t v)
{
    return v == 0 ? 0 : 32 - static_cast<uint32_t>(__builtin_clz(v));
}

constexpr uint32_t kPackedHeaderBytes = 8;

} // namespace

// ---------------------------------------------------------------------
// packed_simd: generic-width vertical bit unpack, three ISA levels
// ---------------------------------------------------------------------

namespace packed_simd {

namespace {

/**
 * Portable reference: value i lives in lane i%4, row i/4; row r of a
 * lane occupies bits [r*bits, (r+1)*bits) of that lane's 32-bit word
 * stream (word k of lane l sits at byte (k*4+l)*4). Never reads past
 * the 16*bits payload: the carry word is only touched when the value
 * actually crosses a word boundary, which implies word+1 < bits.
 */
void
unpackScalarImpl(const uint8_t *in, uint32_t bits, uint32_t *out)
{
    const uint64_t mask = (1ull << bits) - 1;
    for (uint32_t r = 0; r < 32; ++r) {
        const uint32_t bit = r * bits;
        const uint32_t word = bit >> 5;
        const uint32_t sh = bit & 31;
        for (uint32_t l = 0; l < 4; ++l) {
            uint64_t v = loadLe32(in + (word * 4 + l) * 4) >> sh;
            if (sh + bits > 32)
                v |= static_cast<uint64_t>(
                         loadLe32(in + ((word + 1) * 4 + l) * 4))
                    << (32 - sh);
            out[r * 4 + l] = static_cast<uint32_t>(v & mask);
        }
    }
}

#if WSEARCH_PACKED_X86

/**
 * SSE2: one row (4 lanes) per iteration. The next-word load is
 * unconditional (shift counts >= 32 zero the lanes, so a carry that
 * is not needed contributes nothing), which is why packed lists pad
 * kPackedTailPad bytes after the final block.
 */
void
unpackSse2Impl(const uint8_t *in, uint32_t bits, uint32_t *out)
{
    const __m128i mask = _mm_set1_epi32(
        static_cast<int>((1ull << bits) - 1));
    for (uint32_t r = 0; r < 32; ++r) {
        const uint32_t bit = r * bits;
        const uint32_t k = bit >> 5;
        const uint32_t sh = bit & 31;
        __m128i v = _mm_srl_epi32(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * k)),
            _mm_cvtsi32_si128(static_cast<int>(sh)));
        const __m128i carry = _mm_sll_epi32(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * (k + 1))),
            _mm_cvtsi32_si128(static_cast<int>(32 - sh)));
        v = _mm_and_si128(_mm_or_si128(v, carry), mask);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 4 * r), v);
    }
}

/**
 * AVX2: two rows per iteration via per-lane variable shifts. Rows r
 * and r+1 start in the same or adjacent 128-bit words, so one 256-bit
 * load (or a 128-bit broadcast when they share a word) covers both.
 */
__attribute__((target("avx2"))) void
unpackAvx2Impl(const uint8_t *in, uint32_t bits, uint32_t *out)
{
    const __m256i mask = _mm256_set1_epi32(
        static_cast<int>((1ull << bits) - 1));
    for (uint32_t r = 0; r < 32; r += 2) {
        const uint32_t b0 = r * bits;
        const uint32_t b1 = (r + 1) * bits;
        const uint32_t k0 = b0 >> 5;
        const uint32_t k1 = b1 >> 5;
        const int s0 = static_cast<int>(b0 & 31);
        const int s1 = static_cast<int>(b1 & 31);
        __m256i lo, carry;
        if (k0 == k1) {
            lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * k0)));
            carry = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * (k0 + 1))));
        } else {
            lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(in + 16 * k0));
            carry = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(in + 16 * (k0 + 1)));
        }
        const __m256i srl =
            _mm256_setr_epi32(s0, s0, s0, s0, s1, s1, s1, s1);
        const __m256i sll = _mm256_setr_epi32(
            32 - s0, 32 - s0, 32 - s0, 32 - s0, 32 - s1, 32 - s1,
            32 - s1, 32 - s1);
        __m256i v = _mm256_or_si256(_mm256_srlv_epi32(lo, srl),
                                    _mm256_sllv_epi32(carry, sll));
        v = _mm256_and_si256(v, mask);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 4 * r),
                            v);
    }
}

#endif // WSEARCH_PACKED_X86

using UnpackFn = void (*)(const uint8_t *, uint32_t, uint32_t *);

struct Dispatch
{
    UnpackFn fn;
    Level level;
};

Dispatch
resolve()
{
#if WSEARCH_PACKED_X86
    if (__builtin_cpu_supports("avx2"))
        return {unpackAvx2Impl, Level::kAvx2};
    return {unpackSse2Impl, Level::kSse2};
#else
    return {unpackScalarImpl, Level::kScalar};
#endif
}

const Dispatch &
dispatch()
{
    static const Dispatch d = resolve();
    return d;
}

/** Width-0 blocks carry no payload: everything decodes to zero. */
inline bool
zeroFill(uint32_t bits, uint32_t *out)
{
    if (bits != 0)
        return false;
    std::memset(out, 0, sizeof(uint32_t) * kPostingBlockSize);
    return true;
}

} // namespace

Level
activeLevel()
{
    return dispatch().level;
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::kScalar:
        return "scalar";
      case Level::kSse2:
        return "sse2";
      case Level::kAvx2:
        return "avx2";
    }
    return "?";
}

void
unpackScalar(const uint8_t *in, uint32_t bits, uint32_t *out)
{
    if (zeroFill(bits, out))
        return;
    unpackScalarImpl(in, bits, out);
}

bool
unpackSse2(const uint8_t *in, uint32_t bits, uint32_t *out)
{
#if WSEARCH_PACKED_X86
    if (zeroFill(bits, out))
        return true;
    unpackSse2Impl(in, bits, out);
    return true;
#else
    (void)in;
    (void)bits;
    (void)out;
    return false;
#endif
}

bool
unpackAvx2(const uint8_t *in, uint32_t bits, uint32_t *out)
{
#if WSEARCH_PACKED_X86
    if (!__builtin_cpu_supports("avx2"))
        return false;
    if (zeroFill(bits, out))
        return true;
    unpackAvx2Impl(in, bits, out);
    return true;
#else
    (void)in;
    (void)bits;
    (void)out;
    return false;
#endif
}

} // namespace packed_simd

namespace {

/** The dispatched bulk unpack (handles width 0). */
inline void
unpackDispatched(const uint8_t *in, uint32_t bits, uint32_t *out)
{
    if (bits == 0) {
        std::memset(out, 0, sizeof(uint32_t) * kPostingBlockSize);
        return;
    }
    packed_simd::dispatch().fn(in, bits, out);
}

/**
 * Append 128 width-@p bits values (vertical layout; @p v zero-padded
 * past @p count by the caller) to @p out. Encode is scalar: it runs
 * once at build/seal/merge time, decode is the hot path.
 */
void
packBits(const uint32_t *v, uint32_t bits, std::vector<uint8_t> &out)
{
    if (bits == 0)
        return;
    const size_t pos = out.size();
    out.resize(pos + 16u * bits, 0);
    uint8_t *bytes = out.data() + pos;
    for (uint32_t i = 0; i < kPostingBlockSize; ++i) {
        const uint32_t lane = i & 3;
        const uint32_t row = i >> 2;
        const uint32_t bit = row * bits;
        const uint32_t word = bit >> 5;
        const uint32_t sh = bit & 31;
        const uint64_t val = static_cast<uint64_t>(v[i]) << sh;
        uint8_t *p0 = bytes + (word * 4 + lane) * 4;
        storeLe32(p0, loadLe32(p0) | static_cast<uint32_t>(val));
        if (sh + bits > 32) {
            uint8_t *p1 = bytes + ((word + 1) * 4 + lane) * 4;
            storeLe32(p1,
                      loadLe32(p1) | static_cast<uint32_t>(val >> 32));
        }
    }
}

// ---------------------------------------------------------------------
// Codec implementations
// ---------------------------------------------------------------------

class VarintBlockCodec final : public BlockCodec
{
  public:
    PostingCodec id() const override { return PostingCodec::kVarint; }

    void
    encodeBlock(const DocId *docs, const uint32_t *tfs, uint32_t count,
                DocId base, std::vector<uint8_t> &out) const override
    {
        DocId prev = base;
        for (uint32_t i = 0; i < count; ++i) {
            varintEncode(docs[i] - prev, out);
            varintEncode(tfs[i], out);
            prev = docs[i];
        }
    }

    void
    decodeBlock(const uint8_t *begin, const uint8_t *end, DocId base,
                uint32_t count, uint32_t payload_bytes, DocId *docs,
                uint32_t *tfs) const override
    {
        const uint8_t *p = begin;
        DocId doc = base;
        for (uint32_t i = 0; i < count; ++i) {
            const uint64_t gap = varintDecode(p, end);
            const uint64_t tf = varintDecode(p, end);
            doc += static_cast<DocId>(gap);
            docs[i] = doc;
            tfs[i] = static_cast<uint32_t>(tf);
            p += payload_bytes <= static_cast<size_t>(end - p)
                ? payload_bytes
                : static_cast<size_t>(end - p);
        }
    }
};

class PackedBlockCodec final : public BlockCodec
{
  public:
    PostingCodec id() const override { return PostingCodec::kPacked; }

    void
    encodeBlock(const DocId *docs, const uint32_t *tfs, uint32_t count,
                DocId base, std::vector<uint8_t> &out) const override
    {
        wsearch_assert(count >= 1 && count <= kPostingBlockSize);
        uint32_t gaps[kPostingBlockSize] = {0};
        uint32_t tfv[kPostingBlockSize] = {0};
        DocId prev = base;
        uint32_t gap_or = 0;
        uint32_t tf_or = 0;
        for (uint32_t i = 0; i < count; ++i) {
            gaps[i] = docs[i] - prev;
            prev = docs[i];
            gap_or |= gaps[i];
            tfv[i] = tfs[i];
            tf_or |= tfs[i];
        }
        const uint32_t gap_bits = bitWidth(gap_or);
        const uint32_t tf_bits = bitWidth(tf_or);
        const size_t pos = out.size();
        out.resize(pos + kPackedHeaderBytes);
        uint8_t *hdr = out.data() + pos;
        storeLe32(hdr, base);
        storeLe16(hdr + 4, static_cast<uint16_t>(count));
        hdr[6] = static_cast<uint8_t>(gap_bits);
        hdr[7] = static_cast<uint8_t>(tf_bits);
        packBits(gaps, gap_bits, out);
        packBits(tfv, tf_bits, out);
    }

    void
    decodeBlock(const uint8_t *begin, const uint8_t *end, DocId base,
                uint32_t count, uint32_t payload_bytes, DocId *docs,
                uint32_t *tfs) const override
    {
        (void)payload_bytes;
        wsearch_assert(payload_bytes == 0);
        const PackedBlockHeader h = readPackedBlockHeader(begin, end);
        wsearch_assert(h.base == base);
        wsearch_assert(h.count == count);
        decodePackedBlock(begin, h, docs, tfs);
    }

    uint32_t tailPadBytes() const override { return kPackedTailPad; }
};

} // namespace

PackedBlockHeader
readPackedBlockHeader(const uint8_t *p, const uint8_t *end)
{
    if (end - p < static_cast<ptrdiff_t>(kPackedHeaderBytes))
        wsearch_panic("corrupt packed block: header past the list end");
    PackedBlockHeader h;
    h.base = loadLe32(p);
    h.count = loadLe16(p + 4);
    h.gapBits = p[6];
    h.tfBits = p[7];
    h.blockBytes = kPackedHeaderBytes + 16 * (h.gapBits + h.tfBits);
    if (h.gapBits > 32 || h.tfBits > 32 || h.count == 0 ||
        h.count > kPostingBlockSize ||
        h.blockBytes > static_cast<size_t>(end - p))
        wsearch_panic("corrupt packed block: bit width, count or size "
                      "out of range");
    return h;
}

void
decodePackedBlock(const uint8_t *begin, const PackedBlockHeader &h,
                  DocId *docs, uint32_t *tfs)
{
    alignas(32) uint32_t gaps[kPostingBlockSize];
    unpackDispatched(begin + kPackedHeaderBytes, h.gapBits, gaps);
    unpackDispatched(begin + kPackedHeaderBytes + 16 * h.gapBits,
                     h.tfBits, tfs);
    DocId doc = h.base;
    for (uint32_t i = 0; i < h.count; ++i) {
        doc += gaps[i];
        docs[i] = doc;
    }
}

const BlockCodec &
BlockCodec::get(PostingCodec id)
{
    static const VarintBlockCodec varint;
    static const PackedBlockCodec packed;
    switch (id) {
      case PostingCodec::kVarint:
        return varint;
      case PostingCodec::kPacked:
        return packed;
    }
    wsearch_panic("unknown PostingCodec");
}

} // namespace wsearch
