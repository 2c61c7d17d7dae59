/**
 * @file
 * Zipf-distributed rank sampler.
 *
 * Server workloads touch their footprints with strong popularity skew
 * (hot database pages, hot code paths); scientific sweeps are close to
 * uniform. The synthetic workload generator draws block ranks from a
 * Zipf(theta) distribution: P(rank k) proportional to 1/k^theta, theta=0
 * degenerating to uniform.
 */

#ifndef CDIR_WORKLOAD_ZIPF_HH
#define CDIR_WORKLOAD_ZIPF_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace cdir {

/** Inverse-CDF Zipf sampler over ranks [0, n). */
class ZipfSampler
{
  public:
    /**
     * @param n     number of ranks; at most 2^32 when @p theta > 0.
     * @param theta skew; 0 = uniform, ~1 = classic Zipf.
     */
    ZipfSampler(std::size_t n, double theta) : items(n), skew(theta)
    {
        assert(n >= 1);
        if (skew <= 0.0)
            return; // uniform fast path
        if (n - 1 > std::numeric_limits<std::uint32_t>::max())
            throw std::invalid_argument(
                "Zipf sampler: " + std::to_string(n) +
                " ranks exceed the 32-bit guide table");
        cdf.reserve(n);
        double total = 0.0;
        for (std::size_t k = 1; k <= n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k), skew);
            cdf.push_back(total);
        }
        for (auto &v : cdf)
            v /= total;

        // Guide table over u-space: guide[b] is the first rank whose
        // CDF reaches b/K. A draw's answer (first rank with cdf >= u)
        // lies in [guide[b], guide[b+1]] for u's bucket b. K is a power
        // of two, so b/K is exact and b is the top bits of u's integer.
        const std::size_t buckets = std::max<std::size_t>(
            64, std::bit_ceil(2 * std::min<std::size_t>(n, 4096)));
        bucketShift = 53 - static_cast<unsigned>(std::countr_zero(buckets));
        guide.resize(buckets + 1);
        const double step = 1.0 / static_cast<double>(buckets);
        std::size_t rank = 0;
        for (std::size_t b = 0; b < buckets; ++b) {
            while (rank < n - 1 && cdf[rank] < static_cast<double>(b) * step)
                ++rank;
            guide[b] = static_cast<std::uint32_t>(rank);
        }
        guide[buckets] = static_cast<std::uint32_t>(n - 1);
    }

    /** Draw one rank using @p rng (one rng.next() per draw). */
    std::size_t
    sample(Rng &rng) const
    {
        if (skew <= 0.0)
            return static_cast<std::size_t>(rng.below(items));
        // The 53-bit integer Rng::uniform() scales into [0, 1).
        const std::uint64_t m = rng.next() >> 11;
        const double u = static_cast<double>(m) * 0x1.0p-53;
        const std::uint64_t b = m >> bucketShift;
        std::size_t lo = guide[b], hi = guide[b + 1];
        // Halve long ranges (flat tails of large footprints) down to a
        // short run, then scan it forward: cdf[hi] >= u ends the scan.
        while (hi - lo > kScanRun) {
            const std::size_t mid = (lo + hi) / 2;
            if (cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        while (cdf[lo] < u)
            ++lo;
        return lo;
    }

    /** Number of ranks. */
    std::size_t size() const { return items; }

    /** Configured skew. */
    double theta() const { return skew; }

  private:
    /** Longest guide range scanned without halving it first. */
    static constexpr std::size_t kScanRun = 8;

    std::size_t items;
    double skew;
    std::vector<double> cdf;
    unsigned bucketShift = 0;         //!< 53 - log2(buckets)
    std::vector<std::uint32_t> guide; //!< first rank per u-space bucket
};

} // namespace cdir

#endif // CDIR_WORKLOAD_ZIPF_HH
