#include "trace/signature.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/rng.hh"

namespace wsearch {

namespace {

/**
 * 4096-bit linear-counting sketch of distinct values. Cheap enough to
 * clear per window per segment, accurate to a few percent up to ~10k
 * distinct blocks -- plenty to order windows by footprint, which is
 * all clustering needs.
 */
class FootprintSketch
{
  public:
    void clear() { std::memset(bits_, 0, sizeof bits_); }

    void
    add(uint64_t value)
    {
        const uint64_t h = mix64(value) & (kBits - 1);
        bits_[h >> 6] |= 1ull << (h & 63);
    }

    /** Linear-counting estimate: -m * ln(zeros / m). */
    double
    estimate() const
    {
        uint64_t set = 0;
        for (const uint64_t w : bits_)
            set += static_cast<uint64_t>(__builtin_popcountll(w));
        const uint64_t zeros = kBits - set;
        if (zeros == 0) // saturated; return the sketch ceiling
            return static_cast<double>(kBits) *
                std::log(static_cast<double>(kBits));
        return -static_cast<double>(kBits) *
            std::log(static_cast<double>(zeros) /
                     static_cast<double>(kBits));
    }

  private:
    static constexpr uint64_t kBits = 4096;
    uint64_t bits_[kBits / 64] = {};
};

} // namespace

double
WindowSignature::branchEntropy() const
{
    if (branches == 0)
        return 0.0;
    const double p = static_cast<double>(taken) /
        static_cast<double>(branches);
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

SignatureVec
WindowSignature::features() const
{
    SignatureVec f{};
    if (records == 0)
        return f;
    const double n = static_cast<double>(records);
    f[0] = static_cast<double>(
               dataAccesses[static_cast<uint32_t>(AccessKind::Heap)]) / n;
    f[1] = static_cast<double>(
               dataAccesses[static_cast<uint32_t>(AccessKind::Shard)]) / n;
    f[2] = static_cast<double>(
               dataAccesses[static_cast<uint32_t>(AccessKind::Stack)]) / n;
    f[3] = static_cast<double>(stores) / n;
    f[4] = static_cast<double>(branches) / n;
    f[5] = branchEntropy();
    f[6] = std::log2(1.0 + codeFootprint);
    f[7] = std::log2(1.0 + heapFootprint);
    f[8] = std::log2(1.0 + shardFootprint);
    f[9] = std::log2(1.0 + stackFootprint);
    return f;
}

std::vector<WindowSignature>
extractWindowSignatures(const BufferedTrace &trace, uint64_t total,
                        uint64_t window_records, uint32_t block_bytes)
{
    std::vector<WindowSignature> sigs;
    total = std::min(total, trace.size());
    if (total == 0 || window_records == 0)
        return sigs;
    const uint32_t block_shift = [&] {
        uint32_t s = 0;
        while ((1u << (s + 1)) <= block_bytes)
            ++s;
        return s;
    }();

    // One sketch set reused across windows; cleared per window.
    FootprintSketch code, heap, shard, stack;
    uint64_t pos = 0;
    while (pos < total) {
        WindowSignature sig;
        sig.begin = pos;
        sig.records = std::min(window_records, total - pos);
        code.clear();
        heap.clear();
        shard.clear();
        stack.clear();
        trace.forEachSpan(pos, sig.records, [&](const TraceRecord *recs,
                                                size_t n) {
            for (size_t i = 0; i < n; ++i) {
                const TraceRecord &r = recs[i];
                code.add(r.pc >> block_shift);
                if (r.isBranch()) {
                    ++sig.branches;
                    if (r.isTaken())
                        ++sig.taken;
                }
                if (r.hasData()) {
                    ++sig.dataAccesses[static_cast<uint32_t>(r.kind)];
                    if (r.isStore())
                        ++sig.stores;
                    const uint64_t blk = r.addr >> block_shift;
                    switch (r.kind) {
                      case AccessKind::Heap:
                        heap.add(blk);
                        break;
                      case AccessKind::Shard:
                        shard.add(blk);
                        break;
                      case AccessKind::Stack:
                        stack.add(blk);
                        break;
                      case AccessKind::Code:
                        break;
                    }
                }
            }
        });
        sig.codeFootprint = code.estimate();
        sig.heapFootprint = heap.estimate();
        sig.shardFootprint = shard.estimate();
        sig.stackFootprint = stack.estimate();
        sigs.push_back(sig);
        pos += sig.records;
    }
    return sigs;
}

std::vector<SignatureVec>
standardizedFeatures(const std::vector<WindowSignature> &sigs)
{
    std::vector<SignatureVec> feats;
    feats.reserve(sigs.size());
    for (const WindowSignature &s : sigs)
        feats.push_back(s.features());
    if (feats.empty())
        return feats;
    const double n = static_cast<double>(feats.size());
    for (size_t d = 0; d < kSignatureDims; ++d) {
        double mean = 0;
        for (const SignatureVec &f : feats)
            mean += f[d];
        mean /= n;
        double var = 0;
        for (const SignatureVec &f : feats)
            var += (f[d] - mean) * (f[d] - mean);
        var /= n;
        const double sd = std::sqrt(var);
        for (SignatureVec &f : feats)
            f[d] = sd > 1e-12 ? (f[d] - mean) / sd : 0.0;
    }
    return feats;
}

double
sigDistSq(const SignatureVec &a, const SignatureVec &b)
{
    double d = 0;
    for (size_t i = 0; i < kSignatureDims; ++i) {
        const double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

KMeansResult
kMeansCluster(const std::vector<SignatureVec> &points, uint32_t k,
              uint64_t seed)
{
    KMeansResult res;
    const size_t n = points.size();
    if (n == 0 || k == 0)
        return res;
    k = static_cast<uint32_t>(std::min<size_t>(k, n));

    // k-means++ initialization: first center uniform, then
    // D^2-weighted draws. All randomness comes from one seeded Rng.
    Rng rng(seed);
    std::vector<SignatureVec> centers;
    centers.reserve(k);
    centers.push_back(points[rng.nextRange(n)]);
    std::vector<double> d2(n);
    while (centers.size() < k) {
        double sum = 0;
        for (size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::max();
            for (const SignatureVec &c : centers)
                best = std::min(best, sigDistSq(points[i], c));
            d2[i] = best;
            sum += best;
        }
        size_t pick = 0;
        if (sum > 0) {
            double r = rng.nextDouble() * sum;
            for (size_t i = 0; i < n; ++i) {
                r -= d2[i];
                if (r <= 0) {
                    pick = i;
                    break;
                }
            }
        } else {
            // All remaining points coincide with a center; any pick
            // yields an identical clustering.
            pick = rng.nextRange(n);
        }
        centers.push_back(points[pick]);
    }

    res.assignment.assign(n, 0);
    constexpr int kMaxIters = 64;
    for (int iter = 0; iter < kMaxIters; ++iter) {
        // Assign: nearest center, lowest index on ties (strict <).
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            uint32_t best = 0;
            double bestd = sigDistSq(points[i], centers[0]);
            for (uint32_t c = 1; c < k; ++c) {
                const double d = sigDistSq(points[i], centers[c]);
                if (d < bestd) {
                    bestd = d;
                    best = c;
                }
            }
            if (res.assignment[i] != best) {
                res.assignment[i] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;

        // Update: mean of members; empty clusters reseed to the point
        // farthest from its current center (deterministic).
        std::vector<SignatureVec> sums(k, SignatureVec{});
        std::vector<uint64_t> counts(k, 0);
        for (size_t i = 0; i < n; ++i) {
            const uint32_t c = res.assignment[i];
            ++counts[c];
            for (size_t d = 0; d < kSignatureDims; ++d)
                sums[c][d] += points[i][d];
        }
        for (uint32_t c = 0; c < k; ++c) {
            if (counts[c] > 0) {
                for (size_t d = 0; d < kSignatureDims; ++d)
                    centers[c][d] =
                        sums[c][d] / static_cast<double>(counts[c]);
            } else {
                size_t far = 0;
                double fard = -1;
                for (size_t i = 0; i < n; ++i) {
                    const double d = sigDistSq(
                        points[i], centers[res.assignment[i]]);
                    if (d > fard) {
                        fard = d;
                        far = i;
                    }
                }
                centers[c] = points[far];
            }
        }
    }
    res.centroids = std::move(centers);
    return res;
}

} // namespace wsearch
