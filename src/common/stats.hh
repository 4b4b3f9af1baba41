/**
 * @file
 * Latency histograms. Named run counters live in the runtime counter
 * registry (runtime/perf_stats.hh).
 */

#ifndef ASCEND_COMMON_STATS_HH
#define ASCEND_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ascend {
namespace stats {

/**
 * A fixed-bucket histogram with percentile queries (used for NoC /
 * memory latency distributions, where tails matter more than means).
 */
class Histogram
{
  public:
    /** @param max_value Values above this land in the overflow bucket. */
    explicit Histogram(double max_value = 1024.0, std::size_t buckets = 256)
        : max_(max_value), counts_(buckets + 1, 0)
    {
    }

    void
    sample(double v)
    {
        std::size_t idx = counts_.size() - 1; // overflow
        if (v < max_ && v >= 0) {
            idx = static_cast<std::size_t>(
                v / max_ * double(counts_.size() - 1));
        }
        ++counts_[idx];
        ++total_;
    }

    std::uint64_t count() const { return total_; }

    /** Value at quantile @p q in [0, 1] (upper bucket edge). */
    double
    percentile(double q) const
    {
        if (total_ == 0)
            return 0.0;
        const auto target = static_cast<std::uint64_t>(
            q * double(total_ - 1));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i + 1 < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen > target)
                return (double(i) + 1.0) * max_ /
                       double(counts_.size() - 1);
        }
        return max_; // overflow bucket
    }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        total_ = 0;
    }

  private:
    double max_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace stats
} // namespace ascend

#endif // ASCEND_COMMON_STATS_HH
