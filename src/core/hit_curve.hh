/**
 * @file
 * Hit-rate-vs-capacity curve with log-capacity linear interpolation.
 * The design-space models (cache-for-cores, L4 evaluation) consume
 * curves produced by simulation sweeps; interpolation lets them
 * evaluate capacities between simulated points.
 */

#ifndef WSEARCH_CORE_HIT_CURVE_HH
#define WSEARCH_CORE_HIT_CURVE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace wsearch {

/** Monotone-capacity hit-rate curve. */
class HitRateCurve
{
  public:
    /** Points may be added in any order; they are kept sorted. */
    void
    addPoint(uint64_t size_bytes, double hit_rate)
    {
        wsearch_assert(size_bytes > 0);
        points_.push_back({static_cast<double>(size_bytes), hit_rate});
        std::sort(points_.begin(), points_.end());
    }

    /** Interpolated hit rate; clamps outside the sampled range. */
    double
    hitRate(uint64_t size_bytes) const
    {
        wsearch_assert(!points_.empty());
        const double s = static_cast<double>(size_bytes);
        if (s <= points_.front().first)
            return points_.front().second;
        if (s >= points_.back().first)
            return points_.back().second;
        for (size_t i = 1; i < points_.size(); ++i) {
            if (s <= points_[i].first) {
                const double x0 = std::log2(points_[i - 1].first);
                const double x1 = std::log2(points_[i].first);
                const double t = (std::log2(s) - x0) / (x1 - x0);
                return points_[i - 1].second +
                    t * (points_[i].second - points_[i - 1].second);
            }
        }
        return points_.back().second;
    }

  private:
    std::vector<std::pair<double, double>> points_;
};

} // namespace wsearch

#endif // WSEARCH_CORE_HIT_CURVE_HH
