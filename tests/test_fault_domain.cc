/**
 * @file
 * Tests of the correlated fault-domain layer: topology arithmetic,
 * deterministic generation, the empty-schedule fault-free twin, rack
 * strike expansion, and fingerprint distinctness from independent
 * schedules.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "resilience/fault_domain.hh"
#include "resilience/fault_schedule.hh"

using namespace ascend;
using resilience::CorrelatedFaultSpec;
using resilience::DomainTopology;
using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultSchedule;
using resilience::FaultSpec;

namespace {

TEST(DomainTopology, RackAndPowerDomainMath)
{
    DomainTopology topo;
    topo.replicas = 10;
    topo.replicasPerRack = 4;
    topo.racksPerPowerDomain = 2;

    EXPECT_EQ(topo.racks(), 3u); // 4 + 4 + 2
    EXPECT_EQ(topo.powerDomains(), 2u);
    EXPECT_EQ(topo.rackOf(0), 0u);
    EXPECT_EQ(topo.rackOf(3), 0u);
    EXPECT_EQ(topo.rackOf(4), 1u);
    EXPECT_EQ(topo.rackOf(9), 2u);
    EXPECT_EQ(topo.powerDomainOf(7), 0u);
    EXPECT_EQ(topo.powerDomainOf(8), 1u);

    const std::vector<unsigned> last = topo.rackMembers(2);
    ASSERT_EQ(last.size(), 2u); // partial rack
    EXPECT_EQ(last[0], 8u);
    EXPECT_EQ(last[1], 9u);

    const std::vector<unsigned> pd0 = topo.powerDomainMembers(0);
    ASSERT_EQ(pd0.size(), 8u);
    EXPECT_EQ(pd0.front(), 0u);
    EXPECT_EQ(pd0.back(), 7u);
    const std::vector<unsigned> pd1 = topo.powerDomainMembers(1);
    ASSERT_EQ(pd1.size(), 2u);
}

CorrelatedFaultSpec
rackySpec()
{
    CorrelatedFaultSpec spec;
    spec.seed = 99;
    spec.horizonSec = 2.0;
    spec.topology.replicas = 8;
    spec.topology.replicasPerRack = 4;
    spec.rackOutagePerSec = 1.0;
    spec.rackOutageSec = 0.05;
    spec.powerOutagePerSec = 0.25;
    spec.powerOutageSec = 0.1;
    return spec;
}

TEST(CorrelatedFaults, DeterministicAndSorted)
{
    const FaultSchedule a = generateCorrelated(rackySpec());
    const FaultSchedule b = generateCorrelated(rackySpec());
    ASSERT_FALSE(a.events().empty());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].timeSec, b.events()[i].timeSec);
        EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    }
    for (std::size_t i = 1; i < a.events().size(); ++i) {
        const FaultEvent &prev = a.events()[i - 1];
        const FaultEvent &cur = a.events()[i];
        const bool ordered =
            prev.timeSec < cur.timeSec ||
            (prev.timeSec == cur.timeSec &&
             prev.target <= cur.target);
        EXPECT_TRUE(ordered) << "event " << i << " out of order";
    }
}

TEST(CorrelatedFaults, DomainEventsShareOneInstant)
{
    // Every rack-outage instant must hit all four members of one
    // rack at exactly the same time.
    const FaultSchedule s = generateCorrelated(rackySpec());
    std::set<double> instants;
    for (const FaultEvent &e : s.events())
        if (e.kind == FaultKind::CoreTransient)
            instants.insert(e.timeSec);
    for (double t : instants) {
        std::set<unsigned> racks;
        std::size_t n = 0;
        for (const FaultEvent &e : s.events()) {
            if (e.kind != FaultKind::CoreTransient ||
                e.timeSec != t)
                continue;
            ++n;
            racks.insert(e.target / 4);
        }
        // One rack (4 members) or one power domain (8 members).
        EXPECT_TRUE(n == 4 || n == 8) << n << " members at " << t;
        EXPECT_EQ(racks.size(), n / 4);
    }
}

TEST(CorrelatedFaults, EmptySpecIsFaultFreeTwin)
{
    CorrelatedFaultSpec spec;
    spec.topology.replicas = 8;
    EXPECT_TRUE(spec.empty());
    const FaultSchedule s = generateCorrelated(spec);
    EXPECT_TRUE(s.events().empty());
}

TEST(CorrelatedFaults, RackStrikeTakesExactlyOneRack)
{
    CorrelatedFaultSpec spec;
    spec.seed = 5;
    spec.horizonSec = 1.0;
    spec.topology.replicas = 8;
    spec.topology.replicasPerRack = 4;
    spec.rackStrikeAtSec = 0.25;
    spec.rackStrikeKind = FaultKind::CorePermanent;
    const FaultSchedule s = generateCorrelated(spec);
    ASSERT_EQ(s.events().size(), 4u);
    std::set<unsigned> racks;
    for (const FaultEvent &e : s.events()) {
        EXPECT_EQ(e.kind, FaultKind::CorePermanent);
        EXPECT_EQ(e.timeSec, 0.25);
        racks.insert(e.target / 4);
    }
    EXPECT_EQ(racks.size(), 1u);
}

TEST(CorrelatedFaults, MergesIndependentBackground)
{
    CorrelatedFaultSpec spec;
    spec.seed = 3;
    spec.horizonSec = 1.0;
    spec.topology.replicas = 4;
    spec.background.coreTransientPerSec = 8.0;

    // The background alone, generated independently under the meta
    // spec the correlated generator builds.
    FaultSpec bg = spec.background;
    bg.seed = spec.seed;
    bg.horizonSec = spec.horizonSec;
    bg.cores = spec.topology.replicas;
    const FaultSchedule alone = FaultSchedule::generate(bg);
    const FaultSchedule merged = generateCorrelated(spec);
    EXPECT_EQ(merged.events().size(), alone.events().size());
    EXPECT_GT(merged.events().size(), 0u);
}

TEST(CorrelatedFaults, FingerprintDistinctFromIndependent)
{
    const CorrelatedFaultSpec spec = rackySpec();
    const FaultSchedule corr = generateCorrelated(spec);
    const FaultSchedule indep = FaultSchedule::generate(corr.spec());
    EXPECT_NE(corr.fingerprint(), indep.fingerprint());
    // And correlated identities react to every knob.
    CorrelatedFaultSpec other = spec;
    other.seed ^= 1;
    EXPECT_NE(corr.fingerprint(),
              generateCorrelated(other).fingerprint());
    other = spec;
    other.topology.replicasPerRack = 2;
    EXPECT_NE(corr.fingerprint(),
              generateCorrelated(other).fingerprint());
}

TEST(CorrelatedFaults, MetaSpecCarriesFleetFacingFields)
{
    const CorrelatedFaultSpec spec = rackySpec();
    const FaultSchedule s = generateCorrelated(spec);
    EXPECT_EQ(s.spec().seed, spec.seed);
    EXPECT_EQ(s.spec().horizonSec, spec.horizonSec);
    EXPECT_EQ(s.spec().cores, spec.topology.replicas);
}

TEST(FaultProfiles, ApplyByName)
{
    CorrelatedFaultSpec spec;
    spec.horizonSec = 10.0;
    spec.topology.replicas = 8;
    EXPECT_TRUE(resilience::applyFaultProfile(spec, "none"));
    EXPECT_TRUE(spec.empty());

    EXPECT_TRUE(resilience::applyFaultProfile(spec, "rack"));
    EXPECT_EQ(spec.rackStrikeAtSec, 3.0);
    EXPECT_EQ(spec.rackStrikeOutageSec, 1.0);
    EXPECT_EQ(spec.powerOutagePerSec, 0.0);

    EXPECT_TRUE(resilience::applyFaultProfile(spec, "power"));
    EXPECT_GT(spec.powerOutagePerSec, 0.0);

    EXPECT_FALSE(resilience::applyFaultProfile(spec, "bogus"));
}

} // namespace
