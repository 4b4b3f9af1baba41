/**
 * @file
 * Bandwidth/latency model of an external memory device (HBM stack,
 * LPDDR channel, or DDR). First-order: a transfer of B bytes costs
 * latency + B / bandwidth, and the model tracks cumulative busy time
 * so callers can reason about sustained utilization.
 */

#ifndef ASCEND_MEMORY_DRAM_HH
#define ASCEND_MEMORY_DRAM_HH

#include <string>

#include "common/types.hh"

namespace ascend {
namespace memory {

/**
 * ECC error-rate knob. Rates are expressed per GiB transferred so
 * they scale with traffic, not wall time. All rates default to zero,
 * and a zero-rate model is bit-for-bit identical to one without ECC
 * accounting.
 */
struct EccConfig
{
    double correctablePerGiB = 0;   ///< expected SEC-DED corrections
    double correctableStallSec = 0; ///< scrub/stall cost per correction
    double uncorrectablePerGiB = 0; ///< expected fatal (DUE) events
};

/** Static description of a memory device. */
struct DramConfig
{
    std::string name = "hbm";
    double bandwidthBytesPerSec = 1.2e12; ///< Ascend 910: 1.2 TB/s HBM
    double latencySec = 120e-9;           ///< first-word latency
    EccConfig ecc;
};

/** Accumulating service-time model. */
class DramModel
{
  public:
    explicit DramModel(DramConfig config) : config_(std::move(config)) {}

    /** Service time in seconds for a @p bytes transfer. */
    double
    serviceTime(Bytes bytes) const
    {
        return config_.latencySec +
               static_cast<double>(bytes) / config_.bandwidthBytesPerSec;
    }

    /** Time to stream @p bytes at full bandwidth (no latency term). */
    double
    streamTime(Bytes bytes) const
    {
        return static_cast<double>(bytes) / config_.bandwidthBytesPerSec;
    }

    /** Expected correctable-error count while moving @p bytes. */
    double
    expectedCorrectable(Bytes bytes) const
    {
        return config_.ecc.correctablePerGiB *
               (static_cast<double>(bytes) / double(kGiB));
    }

    /** Expected stall seconds from ECC corrections on @p bytes. */
    double
    eccStallTime(Bytes bytes) const
    {
        if (config_.ecc.correctablePerGiB <= 0)
            return 0.0;
        return expectedCorrectable(bytes) *
               config_.ecc.correctableStallSec;
    }

    /**
     * Service time including the expected ECC correction stall.
     * Bitwise equal to serviceTime() when the correctable rate is
     * zero (the stall term is never added, not added-as-zero).
     */
    double
    serviceTimeWithEcc(Bytes bytes) const
    {
        const double base = serviceTime(bytes);
        if (config_.ecc.correctablePerGiB <= 0)
            return base;
        return base + eccStallTime(bytes);
    }

    /**
     * Uncorrectable events per second while streaming at full
     * bandwidth; feeds checkpoint/restart models
     * (resilience::timeWithCheckpointRestart).
     */
    double
    uncorrectablePerSecAtFullBandwidth() const
    {
        return config_.ecc.uncorrectablePerGiB *
               (config_.bandwidthBytesPerSec / double(kGiB));
    }

    /** Record an access (for utilization statistics). */
    void
    recordAccess(Bytes bytes)
    {
        totalBytes_ += bytes;
        busyTime_ += serviceTime(bytes);
    }

    Bytes totalBytes() const { return totalBytes_; }
    double busyTime() const { return busyTime_; }
    const DramConfig &config() const { return config_; }

    void
    reset()
    {
        totalBytes_ = 0;
        busyTime_ = 0;
    }

  private:
    DramConfig config_;
    Bytes totalBytes_ = 0;
    double busyTime_ = 0;
};

/** Published memory devices used by the SoC models. */
DramConfig hbm2Ascend910();   ///< 4 stacks, 1.2 TB/s total
DramConfig lpddr4xMobile();   ///< Kirin-class LPDDR4X, 34 GB/s
DramConfig ddrAutomotive();   ///< Ascend 610 class, 64 GB/s
DramConfig ddrIot();          ///< Ascend-Tiny class, 8 GB/s

} // namespace memory
} // namespace ascend

#endif // ASCEND_MEMORY_DRAM_HH
