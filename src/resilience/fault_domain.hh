/**
 * @file
 * Correlated fault domains: replica -> rack -> power domain.
 *
 * FaultSchedule (fault_schedule.hh) injects *independent* per-target
 * faults; real fleets die by correlation — a rack PDU trip or a
 * power-domain brownout takes every member out in the same instant.
 * This module adds the topology and a correlated generator: a seeded
 * *domain-level* event stream is expanded deterministically into one
 * FaultEvent per member, all at the same timeSec, and merged with an
 * optional independent background spec. The result is an ordinary
 * FaultSchedule, so every existing consumer (serving::runFleet,
 * cluster::runElastic, soc fault plans) consumes correlated loss with
 * zero changes to its event loop.
 *
 * Determinism contract (same as fault_schedule.hh): domain events are
 * quasi-periodic with uniform jitter from a private RNG stream per
 * (seed, stream, domain); pure arithmetic, no libm, no wall clock.
 * An empty CorrelatedFaultSpec expands to an empty schedule, and every
 * fault-aware path reproduces its fault-free twin bit-for-bit on an
 * empty schedule.
 */

#ifndef ASCEND_RESILIENCE_FAULT_DOMAIN_HH
#define ASCEND_RESILIENCE_FAULT_DOMAIN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/fault_schedule.hh"

namespace ascend {
namespace resilience {

/**
 * Placement of replicas into racks and racks into power domains.
 * Replica r lives in rack r / replicasPerRack; rack k in power domain
 * k / racksPerPowerDomain. The last rack / domain may be partial.
 */
struct DomainTopology
{
    unsigned replicas = 0;
    unsigned replicasPerRack = 4;
    unsigned racksPerPowerDomain = 2;

    unsigned racks() const;
    unsigned powerDomains() const;
    unsigned rackOf(unsigned replica) const;
    unsigned powerDomainOf(unsigned replica) const;

    /** Replica indices in @p rack, ascending. */
    std::vector<unsigned> rackMembers(unsigned rack) const;

    /** Replica indices in power domain @p domain, ascending. */
    std::vector<unsigned> powerDomainMembers(unsigned domain) const;
};

/**
 * Rates and shapes of domain-correlated failure. All rates default to
 * zero: a default spec is the fault-free case. Domain rates are mean
 * events per *domain* per sim-second; each event expands into one
 * FaultEvent per member at the identical instant.
 */
struct CorrelatedFaultSpec
{
    std::uint64_t seed = 0xfa117;
    double horizonSec = 1.0;
    DomainTopology topology;

    /// @{ Rack-level events (every member of the rack is hit).
    double rackOutagePerSec = 0;  ///< CoreTransient outage per member
    double rackOutageSec = 0.05;  ///< outage window
    double rackFailPerSec = 0;    ///< CorePermanent death per member
    double rackDegradePerSec = 0; ///< CoreStraggler window per member
    double rackDegradeSec = 0.1;
    double rackDegradeFactor = 1.5;
    /// @}

    /// @{ Power-domain events (every member of every rack is hit).
    double powerOutagePerSec = 0; ///< CoreTransient outage per member
    double powerOutageSec = 0.2;
    /// @}

    /**
     * One deterministic domain strike — the headline chaos scenario:
     * at exactly rackStrikeAtSec (< 0 = off) a seed-chosen rack
     * suffers rackStrikeKind on every member. CoreTransient strikes
     * clear after rackStrikeOutageSec; CorePermanent ones never do.
     */
    double rackStrikeAtSec = -1;
    FaultKind rackStrikeKind = FaultKind::CoreTransient;
    double rackStrikeOutageSec = 0.05;

    /**
     * Independent per-replica background faults layered under the
     * correlated ones (cores is forced to topology.replicas).
     */
    FaultSpec background;

    /** True when no rate or strike can produce an event. */
    bool empty() const;

    static constexpr const char *keyTag = "cflt:"; ///< key prefix
};

/** CorrelatedFaultSpec's fields, in key order; checked on generate. */
template <typename F, RecordOf<CorrelatedFaultSpec>... S>
void
forEachField(F &&f, S &...s)
{
    f("seed", s.seed...);
    f("replicas", s.topology.replicas...);
    f(positive("replicas_per_rack"), s.topology.replicasPerRack...);
    f(positive("racks_per_power_domain"),
      s.topology.racksPerPowerDomain...);
    f(nonNegative("horizon_sec"), s.horizonSec...);
    f(nonNegative("rack_outage_per_sec"), s.rackOutagePerSec...);
    f(nonNegative("rack_outage_sec"), s.rackOutageSec...);
    f(nonNegative("rack_fail_per_sec"), s.rackFailPerSec...);
    f(nonNegative("rack_degrade_per_sec"), s.rackDegradePerSec...);
    f(nonNegative("rack_degrade_sec"), s.rackDegradeSec...);
    f(atLeastOne("rack_degrade_factor"), s.rackDegradeFactor...);
    f(nonNegative("power_outage_per_sec"), s.powerOutagePerSec...);
    f(nonNegative("power_outage_sec"), s.powerOutageSec...);
    f("rack_strike_at_sec", s.rackStrikeAtSec...);
    f(nonNegative("rack_strike_outage_sec"), s.rackStrikeOutageSec...);
    f("rack_strike_kind", s.rackStrikeKind...);
    f("background", s.background...);
}

/** Exact serialization of @p spec (cache keys / run fingerprints). */
std::string fingerprint(const CorrelatedFaultSpec &spec);

/**
 * Deterministically expand @p spec into a concrete FaultSchedule:
 * domain events become per-member FaultEvents at one shared instant,
 * merged with the background schedule and canonically sorted. The
 * schedule's spec() carries cores = topology.replicas and the
 * correlated fingerprint overrides the spec-level one.
 */
FaultSchedule generateCorrelated(const CorrelatedFaultSpec &spec);

/**
 * Named chaos profiles for benches and CI, selectable through the
 * ASCEND_FAULT_PROFILE environment variable:
 *  - "none":  empty (the fault-free twin);
 *  - "rack":  one rack-wide transient outage striking at
 *             0.3 * horizon for 0.1 * horizon;
 *  - "power": the rack strike plus a power-domain outage rate of one
 *             expected event over the horizon.
 * Returns false (and leaves @p spec empty) for unknown names.
 */
bool applyFaultProfile(CorrelatedFaultSpec &spec,
                       const std::string &name);

/**
 * ASCEND_FAULT_PROFILE, or @p fallback when unset/empty. The caller
 * feeds the result to applyFaultProfile.
 */
std::string faultProfileFromEnv(const std::string &fallback);

} // namespace resilience
} // namespace ascend

#endif // ASCEND_RESILIENCE_FAULT_DOMAIN_HH
