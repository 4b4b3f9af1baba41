/**
 * @file
 * Deterministic fault schedules for degraded-mode simulation.
 *
 * At the paper's top scale (2048 chips, Section 4.2 / Fig. 15) the
 * fault-free case is the exception: link flaps, straggler cores and
 * memory errors dominate delivered throughput. This module generates
 * the *when and what* of failure as pure data — a seeded, sorted list
 * of FaultEvents — which the fault-aware simulation paths
 * (cluster/fault_collective, soc/chip_sim, memory/dram ECC) consume.
 *
 * Determinism contract:
 *  - a FaultSpec (rates + seed) maps to exactly one FaultSchedule on
 *    every platform. Event times are quasi-periodic with uniform
 *    jitter, t_j = (j + u_j) / rate, computed with arithmetic only
 *    (no libm transcendentals whose last bits differ across
 *    implementations), so schedules and everything derived from them
 *    are byte-stable;
 *  - generation never consults wall-clock, thread count or iteration
 *    order: per-target RNG streams make the schedule independent of
 *    how many cores/links are queried or in what order;
 *  - an all-zero spec yields an empty schedule, and every fault-aware
 *    path reproduces its fault-free twin bit-for-bit on an empty
 *    schedule (asserted in tests).
 */

#ifndef ASCEND_RESILIENCE_FAULT_SCHEDULE_HH
#define ASCEND_RESILIENCE_FAULT_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ascend {
namespace resilience {

/** Fault taxonomy (DESIGN.md section "Resilience layer"). */
enum class FaultKind {
    CoreTransient,    ///< core drops out, repairs, restarts its task
    CorePermanent,    ///< core dies; remaining work is re-dispatched
    CoreStraggler,    ///< core runs compute slower by `severity`
    LinkDegraded,     ///< link bandwidth multiplied by `severity` < 1
    LinkDown,         ///< link unusable for `durationSec`
    EccCorrectable,   ///< DRAM ECC scrub stall, transparent
    EccUncorrectable, ///< DRAM data loss; needs checkpoint/restart
};

const char *toString(FaultKind kind);

/** One scheduled fault. */
struct FaultEvent
{
    FaultKind kind = FaultKind::CoreTransient;
    double timeSec = 0;     ///< when the fault strikes
    unsigned target = 0;    ///< core / link index it hits
    double durationSec = 0; ///< outage / repair window (0 = forever)
    double severity = 1.0;  ///< slowdown (>1) or bandwidth factor (<1)
};

/**
 * Rates and shape parameters the generator samples from. All rates
 * default to zero: a default FaultSpec is the fault-free case.
 */
struct FaultSpec
{
    std::uint64_t seed = 0x5eed;
    double horizonSec = 1.0; ///< schedule covers [0, horizonSec)
    unsigned cores = 0;      ///< targets for core faults
    unsigned links = 0;      ///< targets for link faults

    /// @{ Mean events per target per second.
    double coreTransientPerSec = 0;
    double corePermanentPerSec = 0;
    double linkDegradePerSec = 0;
    double linkDownPerSec = 0;
    /// @}

    /**
     * Mean uncorrectable-ECC events per second for the whole system
     * (not per target): each one costs a checkpoint rollback.
     */
    double eccUncorrectablePerSec = 0;

    /// @{ Event shapes.
    double coreRepairSec = 1e-3;    ///< transient-failure repair time
    double linkOutageSec = 5e-4;    ///< LinkDown outage window
    double linkDegradeSec = 2e-3;   ///< LinkDegraded window
    double linkDegradeFactor = 0.5; ///< bandwidth multiplier while degraded
    /// @}

    /// @{ Stragglers: a per-core chance of running slow for the whole
    /// horizon (skewed DVFS bins, shared-host noise).
    double stragglerFraction = 0;
    double stragglerSlowdown = 1.5;
    /// @}

    /** True when no rate can produce an event. */
    bool empty() const;

    static constexpr const char *keyTag = "flt:"; ///< key prefix
};

/** FaultSpec's fields, in key order; generate() checks them. */
template <typename F, RecordOf<FaultSpec>... S>
void
forEachField(F &&f, S &...s)
{
    f("seed", s.seed...);
    f("cores", s.cores...);
    f("links", s.links...);
    f(nonNegative("horizon_sec"), s.horizonSec...);
    f(nonNegative("core_transient_per_sec"), s.coreTransientPerSec...);
    f(nonNegative("core_permanent_per_sec"), s.corePermanentPerSec...);
    f(nonNegative("link_degrade_per_sec"), s.linkDegradePerSec...);
    f(nonNegative("link_down_per_sec"), s.linkDownPerSec...);
    f(nonNegative("ecc_uncorrectable_per_sec"),
      s.eccUncorrectablePerSec...);
    f(nonNegative("core_repair_sec"), s.coreRepairSec...);
    f(nonNegative("link_outage_sec"), s.linkOutageSec...);
    f(nonNegative("link_degrade_sec"), s.linkDegradeSec...);
    f(fraction("link_degrade_factor"), s.linkDegradeFactor...);
    f(fraction("straggler_fraction"), s.stragglerFraction...);
    f(atLeastOne("straggler_slowdown"), s.stragglerSlowdown...);
}

/**
 * The generated schedule: FaultEvents sorted by (time, target, kind).
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /** Deterministically expand @p spec into concrete events. */
    static FaultSchedule generate(const FaultSpec &spec);

    /**
     * Wrap externally generated @p events (canonically re-sorted)
     * under the metadata of @p meta and the identity @p fingerprint.
     * The correlated generator (fault_domain.hh) builds schedules this
     * way: consumers keep reading spec() for fleet-facing metadata
     * (cores, horizon), while fingerprint() reports the override so
     * correlated runs never alias independent ones in cache keys or
     * checkpoint identities.
     */
    static FaultSchedule fromEvents(const FaultSpec &meta,
                                    std::vector<FaultEvent> events,
                                    std::string fingerprint);

    const FaultSpec &spec() const { return spec_; }
    const std::vector<FaultEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }

    /** Events of core-kind faults hitting @p core, in time order. */
    std::vector<FaultEvent> coreEvents(unsigned core) const;

    /** Events of link-kind faults hitting @p link, in time order. */
    std::vector<FaultEvent> linkEvents(unsigned link) const;

    /** Straggler slowdown of @p core (1.0 when not a straggler). */
    double stragglerFactor(unsigned core) const;

    /**
     * Exact serialization of the generating spec (or the fromEvents
     * override); mixed into SimCache keys so faulty runs never alias
     * fault-free entries.
     */
    std::string fingerprint() const;

  private:
    FaultSpec spec_;
    std::vector<FaultEvent> events_;
    std::string fingerprintOverride_; ///< fromEvents identity
};

/** fingerprint of a spec without generating the schedule. */
std::string fingerprint(const FaultSpec &spec);

/**
 * Per-core fault plan for soc::runChipSim: the chip-scope slice of a
 * FaultSchedule (core events plus straggler factors).
 */
struct ChipFaultPlan
{
    /** Per-core compute slowdown, >= 1; empty means "all 1.0". */
    std::vector<double> stragglerFactor;
    /** Per-core CoreTransient / CorePermanent events, time-sorted. */
    std::vector<std::vector<FaultEvent>> coreEvents;

    bool empty() const;

    /** Slice @p schedule for a chip with @p cores cores. */
    static ChipFaultPlan fromSchedule(const FaultSchedule &schedule,
                                      unsigned cores);
};

} // namespace resilience
} // namespace ascend

#endif // ASCEND_RESILIENCE_FAULT_SCHEDULE_HH
