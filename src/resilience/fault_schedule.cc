/**
 * @file
 * Fault-schedule generation.
 */

#include "resilience/fault_schedule.hh"

#include <algorithm>

#include "common/field.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace ascend {
namespace resilience {

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::CoreTransient:    return "core-transient";
      case FaultKind::CorePermanent:    return "core-permanent";
      case FaultKind::CoreStraggler:    return "core-straggler";
      case FaultKind::LinkDegraded:     return "link-degraded";
      case FaultKind::LinkDown:         return "link-down";
      case FaultKind::EccCorrectable:   return "ecc-correctable";
      case FaultKind::EccUncorrectable: return "ecc-uncorrectable";
    }
    return "?";
}

bool
FaultSpec::empty() const
{
    return coreTransientPerSec <= 0 && corePermanentPerSec <= 0 &&
           linkDegradePerSec <= 0 && linkDownPerSec <= 0 &&
           eccUncorrectablePerSec <= 0 && stragglerFraction <= 0;
}

namespace {

/** Canonical event order: (time, target, kind). */
bool
eventBefore(const FaultEvent &a, const FaultEvent &b)
{
    if (a.timeSec != b.timeSec)
        return a.timeSec < b.timeSec;
    if (a.target != b.target)
        return a.target < b.target;
    return unsigned(a.kind) < unsigned(b.kind);
}

/**
 * A private RNG stream per (seed, kind, target): the schedule for one
 * target never depends on how many other targets exist or in which
 * order they are generated.
 */
Rng
streamFor(std::uint64_t seed, FaultKind kind, unsigned target)
{
    const std::uint64_t k = std::uint64_t(kind) + 1;
    return Rng(seed ^ (k * 0x9e3779b97f4a7c15ULL) ^
               (std::uint64_t(target) * 0xd1342543de82ef95ULL));
}

/**
 * Emit quasi-periodic events at @p rate per second over the horizon:
 * the j-th event lands at (j + u_j) / rate with u_j uniform in
 * [0, 1). Pure arithmetic — bit-stable on every platform.
 */
void
emitSeries(std::vector<FaultEvent> &out, const FaultSpec &spec,
           FaultKind kind, unsigned target, double rate,
           double duration, double severity)
{
    if (rate <= 0)
        return;
    Rng rng = streamFor(spec.seed, kind, target);
    for (std::uint64_t j = 0;; ++j) {
        const double t = (double(j) + rng.uniformReal()) / rate;
        if (t >= spec.horizonSec)
            break;
        out.push_back(FaultEvent{kind, t, target, duration, severity});
    }
}

} // anonymous namespace

FaultSchedule
FaultSchedule::generate(const FaultSpec &spec)
{
    checkFields(spec, "fault spec");
    FaultSchedule schedule;
    schedule.spec_ = spec;
    std::vector<FaultEvent> &out = schedule.events_;

    for (unsigned c = 0; c < spec.cores; ++c) {
        emitSeries(out, spec, FaultKind::CoreTransient, c,
                   spec.coreTransientPerSec, spec.coreRepairSec, 1.0);
        emitSeries(out, spec, FaultKind::CorePermanent, c,
                   spec.corePermanentPerSec, 0.0, 1.0);
        if (spec.stragglerFraction > 0) {
            Rng rng = streamFor(spec.seed, FaultKind::CoreStraggler, c);
            if (rng.chance(spec.stragglerFraction))
                out.push_back(FaultEvent{FaultKind::CoreStraggler, 0.0,
                                         c, spec.horizonSec,
                                         spec.stragglerSlowdown});
        }
    }
    for (unsigned l = 0; l < spec.links; ++l) {
        emitSeries(out, spec, FaultKind::LinkDegraded, l,
                   spec.linkDegradePerSec, spec.linkDegradeSec,
                   spec.linkDegradeFactor);
        emitSeries(out, spec, FaultKind::LinkDown, l,
                   spec.linkDownPerSec, spec.linkOutageSec, 0.0);
    }
    emitSeries(out, spec, FaultKind::EccUncorrectable, 0,
               spec.eccUncorrectablePerSec, 0.0, 1.0);

    std::sort(out.begin(), out.end(), eventBefore);
    return schedule;
}

FaultSchedule
FaultSchedule::fromEvents(const FaultSpec &meta,
                          std::vector<FaultEvent> events,
                          std::string fingerprint)
{
    FaultSchedule schedule;
    schedule.spec_ = meta;
    schedule.events_ = std::move(events);
    schedule.fingerprintOverride_ = std::move(fingerprint);
    // stable: events from different domain streams can tie on the
    // full (time, target, kind) key, and the caller's order is the
    // only deterministic tiebreak left.
    std::stable_sort(schedule.events_.begin(), schedule.events_.end(),
                     eventBefore);
    return schedule;
}

namespace {

bool
isCoreKind(FaultKind kind)
{
    return kind == FaultKind::CoreTransient ||
           kind == FaultKind::CorePermanent ||
           kind == FaultKind::CoreStraggler;
}

bool
isLinkKind(FaultKind kind)
{
    return kind == FaultKind::LinkDegraded ||
           kind == FaultKind::LinkDown;
}

} // anonymous namespace

std::vector<FaultEvent>
FaultSchedule::coreEvents(unsigned core) const
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : events_)
        if (isCoreKind(e.kind) && e.target == core)
            out.push_back(e);
    return out;
}

std::vector<FaultEvent>
FaultSchedule::linkEvents(unsigned link) const
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : events_)
        if (isLinkKind(e.kind) && e.target == link)
            out.push_back(e);
    return out;
}

double
FaultSchedule::stragglerFactor(unsigned core) const
{
    for (const FaultEvent &e : events_)
        if (e.kind == FaultKind::CoreStraggler && e.target == core)
            return e.severity;
    return 1.0;
}

std::string
fingerprint(const FaultSpec &spec)
{
    return fieldKey(spec);
}

std::string
FaultSchedule::fingerprint() const
{
    return fingerprintOverride_.empty()
               ? resilience::fingerprint(spec_)
               : fingerprintOverride_;
}

bool
ChipFaultPlan::empty() const
{
    for (const std::vector<FaultEvent> &events : coreEvents)
        if (!events.empty())
            return false;
    for (double f : stragglerFactor)
        if (f != 1.0)
            return false;
    return true;
}

ChipFaultPlan
ChipFaultPlan::fromSchedule(const FaultSchedule &schedule, unsigned cores)
{
    ChipFaultPlan plan;
    plan.stragglerFactor.assign(cores, 1.0);
    plan.coreEvents.resize(cores);
    bool any_event = false;
    for (const FaultEvent &e : schedule.events()) {
        if (e.target >= cores)
            continue;
        if (e.kind == FaultKind::CoreStraggler) {
            plan.stragglerFactor[e.target] = e.severity;
        } else if (e.kind == FaultKind::CoreTransient ||
                   e.kind == FaultKind::CorePermanent) {
            plan.coreEvents[e.target].push_back(e);
            any_event = true;
        }
    }
    bool all_one = true;
    for (double f : plan.stragglerFactor)
        if (f != 1.0)
            all_one = false;
    if (!any_event && all_one) {
        plan.stragglerFactor.clear();
        plan.coreEvents.clear();
    }
    return plan;
}

} // namespace resilience
} // namespace ascend
