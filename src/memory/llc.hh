/**
 * @file
 * Set-associative last-level cache model with MPAM-style way
 * partitioning.
 *
 * Used for two experiments: the Section 4.1 LLC-capacity study
 * (96 MB -> 720 MB 3D-SRAM) and the Section 3.3 automotive QoS study,
 * where Memory System Resource Partitioning and Monitoring (MPAM)
 * reserves ways for the latency-critical partition so bulk streaming
 * traffic cannot evict it.
 *
 * The model is a classic tag-only LRU cache simulated at line
 * granularity; no data is stored. Partitions restrict the ways a
 * request may allocate into (it may still *hit* in any way, which is
 * how MPAM behaves: partitioning controls allocation, not lookup).
 */

#ifndef ASCEND_MEMORY_LLC_HH
#define ASCEND_MEMORY_LLC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ascend {
namespace memory {

/** Static cache geometry. */
struct LlcConfig
{
    Bytes capacity = 96 * kMiB;
    unsigned ways = 16;
    Bytes lineBytes = 4 * kKiB; ///< coarse sectors keep traces short
    unsigned partitions = 1;
};

/** Per-partition access statistics. */
struct LlcPartStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t accesses() const { return hits + misses; }
    double
    hitRate() const
    {
        return accesses() ? double(hits) / accesses() : 0.0;
    }
};

/**
 * The cache model.
 */
class Llc
{
  public:
    explicit Llc(LlcConfig config);

    /**
     * Look up @p addr on behalf of @p part.
     * @return true on hit. On miss the line is allocated into the
     * partition's allowed ways (LRU victim within those ways).
     */
    bool access(std::uint64_t addr, unsigned part = 0);

    /**
     * Restrict @p part to allocate into ways [first, first+count).
     * Ranges of different partitions may overlap; the automotive
     * configuration gives the critical partition a private slice by
     * assigning disjoint ones.
     */
    void setPartitionRange(unsigned part, unsigned first, unsigned count);

    const LlcPartStats &partStats(unsigned part) const;
    const LlcConfig &config() const { return config_; }
    std::uint64_t numSets() const { return sets_; }

    void resetStats();

  private:
    /** Sampled obs counter emission (misses only, strided). */
    void traceSample() const;

    struct Line
    {
        std::uint64_t tag = ~0ull;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };
    struct WayRange
    {
        unsigned first = 0;
        unsigned count = 0;
    };

    LlcConfig config_;
    std::uint64_t sets_;
    std::vector<Line> lines_; ///< sets_ * ways, row-major by set
    std::vector<WayRange> partWays_;
    std::vector<LlcPartStats> stats_;
    std::uint64_t tick_ = 0;
};

} // namespace memory
} // namespace ascend

#endif // ASCEND_MEMORY_LLC_HH
