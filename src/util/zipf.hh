/**
 * @file
 * O(1) Zipf-distributed sampling via rejection-inversion (Hormann &
 * Derflinger, "Rejection-inversion to generate variates from monotone
 * discrete distributions"). Used for term popularity, document
 * popularity, heap-block reuse, and code-path selection.
 */

#ifndef WSEARCH_UTIL_ZIPF_HH
#define WSEARCH_UTIL_ZIPF_HH

#include <cstdint>

#include "util/rng.hh"

namespace wsearch {

/**
 * Samples ranks in [0, n) with P(rank k) proportional to 1/(k+1)^theta.
 * Constant time per sample independent of n; supports theta in (0, ~10],
 * including theta == 1.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     number of items (>= 1)
     * @param theta skew; larger means more concentrated on low ranks
     */
    ZipfSampler(uint64_t n, double theta);

    /** Draw one rank in [0, n) using @p rng. */
    uint64_t sample(Rng &rng) const;

    double theta() const { return theta_; }

  private:
    double h(double x) const;
    double hInverse(double x) const;

    uint64_t n_;
    double theta_;
    double hxm_;       // h(n + 0.5)
    double hx0_;       // h(0.5) shifted
    double s_;         // rejection shortcut threshold
};

} // namespace wsearch

#endif // WSEARCH_UTIL_ZIPF_HH
