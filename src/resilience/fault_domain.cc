/**
 * @file
 * Correlated fault-domain expansion.
 */

#include "resilience/fault_domain.hh"

#include <algorithm>

#include "common/field.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace ascend {
namespace resilience {

unsigned
DomainTopology::racks() const
{
    simAssert(replicasPerRack > 0, "replicasPerRack must be > 0");
    return (replicas + replicasPerRack - 1) / replicasPerRack;
}

unsigned
DomainTopology::powerDomains() const
{
    simAssert(racksPerPowerDomain > 0,
              "racksPerPowerDomain must be > 0");
    const unsigned r = racks();
    return (r + racksPerPowerDomain - 1) / racksPerPowerDomain;
}

unsigned
DomainTopology::rackOf(unsigned replica) const
{
    simAssert(replica < replicas, "replica out of topology");
    return replica / replicasPerRack;
}

unsigned
DomainTopology::powerDomainOf(unsigned replica) const
{
    return rackOf(replica) / racksPerPowerDomain;
}

std::vector<unsigned>
DomainTopology::rackMembers(unsigned rack) const
{
    simAssert(rack < racks(), "rack out of topology");
    std::vector<unsigned> out;
    const unsigned first = rack * replicasPerRack;
    const unsigned last = std::min(first + replicasPerRack, replicas);
    for (unsigned r = first; r < last; ++r)
        out.push_back(r);
    return out;
}

std::vector<unsigned>
DomainTopology::powerDomainMembers(unsigned domain) const
{
    simAssert(domain < powerDomains(), "power domain out of topology");
    std::vector<unsigned> out;
    const unsigned first_rack = domain * racksPerPowerDomain;
    const unsigned last_rack =
        std::min(first_rack + racksPerPowerDomain, racks());
    for (unsigned k = first_rack; k < last_rack; ++k)
        for (unsigned r : rackMembers(k))
            out.push_back(r);
    return out;
}

bool
CorrelatedFaultSpec::empty() const
{
    return rackOutagePerSec <= 0 && rackFailPerSec <= 0 &&
           rackDegradePerSec <= 0 && powerOutagePerSec <= 0 &&
           rackStrikeAtSec < 0 && background.empty();
}

namespace {

/** Domain-stream salts, disjoint from the per-target streams the
 *  independent generator derives (those key on FaultKind). */
enum DomainStream : std::uint64_t {
    kRackOutage = 1,
    kRackFail = 2,
    kRackDegrade = 3,
    kPowerOutage = 4,
    kRackStrike = 5,
};

/** A private RNG stream per (seed, stream, domain). */
Rng
domainStream(std::uint64_t seed, DomainStream stream, unsigned domain)
{
    return Rng(seed ^ (std::uint64_t(stream) * 0xbf58476d1ce4e5b9ULL) ^
               (std::uint64_t(domain) * 0x94d049bb133111ebULL) ^
               0xc0e1a7edULL);
}

/**
 * Emit one domain event per quasi-periodic instant: the j-th event of
 * the stream lands at (j + u_j) / rate, expanded into one FaultEvent
 * per member at that shared instant.
 */
void
emitDomainSeries(std::vector<FaultEvent> &out,
                 const CorrelatedFaultSpec &spec, DomainStream stream,
                 unsigned domain, const std::vector<unsigned> &members,
                 double rate, FaultKind kind, double duration,
                 double severity)
{
    if (rate <= 0 || members.empty())
        return;
    Rng rng = domainStream(spec.seed, stream, domain);
    for (std::uint64_t j = 0;; ++j) {
        const double t = (double(j) + rng.uniformReal()) / rate;
        if (t >= spec.horizonSec)
            break;
        for (unsigned m : members)
            out.push_back(FaultEvent{kind, t, m, duration, severity});
    }
}

} // anonymous namespace

std::string
fingerprint(const CorrelatedFaultSpec &spec)
{
    return fieldKey(spec);
}

FaultSchedule
generateCorrelated(const CorrelatedFaultSpec &spec)
{
    checkFields(spec, "correlated fault spec");
    // The schedule's nominal spec carries the fleet-facing metadata
    // (consumers size spare pools off spec().cores); the identity of
    // the *correlated* run is the fingerprint override below.
    FaultSpec meta = spec.background;
    meta.seed = spec.seed;
    meta.horizonSec = spec.horizonSec;
    meta.cores = spec.topology.replicas;

    std::vector<FaultEvent> events;
    const DomainTopology &topo = spec.topology;
    if (topo.replicas > 0) {
        for (unsigned k = 0; k < topo.racks(); ++k) {
            const std::vector<unsigned> members = topo.rackMembers(k);
            emitDomainSeries(events, spec, kRackOutage, k, members,
                             spec.rackOutagePerSec,
                             FaultKind::CoreTransient,
                             spec.rackOutageSec, 1.0);
            emitDomainSeries(events, spec, kRackFail, k, members,
                             spec.rackFailPerSec,
                             FaultKind::CorePermanent, 0.0, 1.0);
            emitDomainSeries(events, spec, kRackDegrade, k, members,
                             spec.rackDegradePerSec,
                             FaultKind::CoreStraggler,
                             spec.rackDegradeSec,
                             spec.rackDegradeFactor);
        }
        for (unsigned d = 0; d < topo.powerDomains(); ++d)
            emitDomainSeries(events, spec, kPowerOutage, d,
                             topo.powerDomainMembers(d),
                             spec.powerOutagePerSec,
                             FaultKind::CoreTransient,
                             spec.powerOutageSec, 1.0);
        if (spec.rackStrikeAtSec >= 0 &&
            spec.rackStrikeAtSec < spec.horizonSec) {
            Rng rng = domainStream(spec.seed, kRackStrike, 0);
            const unsigned victim =
                unsigned(rng.uniform(topo.racks()));
            const double duration =
                spec.rackStrikeKind == FaultKind::CorePermanent
                    ? 0.0
                    : spec.rackStrikeOutageSec;
            for (unsigned m : topo.rackMembers(victim))
                events.push_back(FaultEvent{spec.rackStrikeKind,
                                            spec.rackStrikeAtSec, m,
                                            duration, 1.0});
        }
    }
    if (!spec.background.empty()) {
        FaultSpec bg = meta;
        const FaultSchedule independent = FaultSchedule::generate(bg);
        events.insert(events.end(), independent.events().begin(),
                      independent.events().end());
    }
    return FaultSchedule::fromEvents(meta, std::move(events),
                                     fingerprint(spec));
}

bool
applyFaultProfile(CorrelatedFaultSpec &spec, const std::string &name)
{
    if (name == "none")
        return true;
    if (name == "rack" || name == "power") {
        spec.rackStrikeAtSec = 0.3 * spec.horizonSec;
        spec.rackStrikeKind = FaultKind::CoreTransient;
        spec.rackStrikeOutageSec = 0.1 * spec.horizonSec;
        if (name == "power" && spec.horizonSec > 0)
            spec.powerOutagePerSec = 1.0 / spec.horizonSec;
        return true;
    }
    return false;
}

} // namespace resilience
} // namespace ascend
