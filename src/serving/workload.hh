/**
 * @file
 * Open-loop serving workloads: QoS tiers and seeded arrival streams.
 *
 * The fleet simulator is open-loop: requests arrive on their own
 * clock whether or not the fleet keeps up, which is what makes
 * overload a reachable state instead of a self-throttling one. This
 * module generates the *when and what* of demand as pure data — a
 * seeded, time-sorted list of Requests — the same way
 * resilience::FaultSchedule generates failure.
 *
 * Determinism contract (shared with FaultSchedule):
 *  - an ArrivalSpec (rate, burst shape, seed) maps to exactly one
 *    arrival list on every platform. Arrival j lands where the
 *    cumulative rate integral reaches j + u_j (uniform jitter), so
 *    the stream is quasi-Poisson with the exact requested mean and is
 *    computed with arithmetic only — no libm transcendentals whose
 *    last bits differ across implementations;
 *  - tier assignment draws from its own RNG stream keyed off the
 *    seed, so adding a tier reshuffles labels but never moves an
 *    arrival time;
 *  - generation never consults wall clock or thread count; the list
 *    is byte-stable input to the (serial) fleet engine.
 */

#ifndef ASCEND_SERVING_WORKLOAD_HH
#define ASCEND_SERVING_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ascend {
namespace serving {

/**
 * One request class: a latency SLO plus the degradation contract.
 * Mirrors the chip-level MPAM story (bench_qos_mpam) one level up:
 * reservedSlots are the fleet analogue of per-tier LLC ways — batch
 * slots a tier is guaranteed at every dispatch — and sheddable tiers
 * are the ones admission control may drop under overload.
 */
struct QosTier
{
    std::string name = "default";
    double deadlineSec = 0.05; ///< SLO measured from arrival
    double share = 1.0;        ///< fraction of offered requests
    bool sheddable = true;     ///< admission control may drop these
    unsigned reservedSlots = 0; ///< guaranteed batch slots per dispatch
};

/** QosTier's fields (common/field.hh). */
template <typename F, RecordOf<QosTier>... T>
void
forEachField(F &&f, T &...t)
{
    f("name", t.name...);
    f("deadline_sec", t.deadlineSec...);
    f("share", t.share...);
    f("sheddable", t.sheddable...);
    f("reserved_slots", t.reservedSlots...);
}

/**
 * First id of the fleet's closed-loop re-offers: the re-offer ids
 * count up from here, so every arrival id must stay below it.
 */
inline constexpr std::uint64_t kReofferIdBase = std::uint64_t(1) << 48;

/** One offered request. */
struct Request
{
    std::uint64_t id = 0;    ///< arrival ordinal (stable identity)
    double arrivalSec = 0;   ///< when it enters the front door
    std::uint32_t tier = 0;  ///< index into the QosTier list
};

/**
 * Shape of the offered-load process. burstFactor > 1 modulates the
 * rate with a square wave (burstDuty of every burstPeriodSec runs at
 * the elevated rate); the calm rate is normalized so the *mean* over
 * a whole period is exactly ratePerSec — sweeping offered load moves
 * one knob whether or not bursts are on.
 */
struct ArrivalSpec
{
    std::uint64_t seed = 0x5eed;
    double horizonSec = 1.0;  ///< arrivals cover [0, horizonSec)
    double ratePerSec = 0;    ///< mean offered requests per second
    double burstFactor = 1.0; ///< peak/calm rate ratio (>= 1)
    double burstPeriodSec = 0; ///< square-wave period; 0 = flat rate
    double burstDuty = 0.5;   ///< fraction of a period at peak rate
};

/** ArrivalSpec's fields, checked by generateArrivals. */
template <typename F, RecordOf<ArrivalSpec>... S>
void
forEachField(F &&f, S &...s)
{
    f("seed", s.seed...);
    f(nonNegative("horizon_sec"), s.horizonSec...);
    f(nonNegative("rate_per_sec"), s.ratePerSec...);
    f(atLeastOne("burst_factor"), s.burstFactor...);
    f(nonNegative("burst_period_sec"), s.burstPeriodSec...);
    f(fraction("burst_duty"), s.burstDuty...);
}

/**
 * Deterministically expand @p spec into concrete arrivals with tiers
 * assigned by cumulative @p tiers share. Sorted by (arrivalSec, id);
 * an empty tier list or zero rate yields an empty stream. Throws
 * ascend::Error (ConfigValidation) on a field outside its domain, or
 * when the arrivals could reach kReofferIdBase (ratePerSec x
 * horizonSec x burstFactor bounds their count).
 */
std::vector<Request> generateArrivals(const ArrivalSpec &spec,
                                      const std::vector<QosTier> &tiers);

/** Exact identity of the tier list. */
std::string fingerprint(const std::vector<QosTier> &tiers);

} // namespace serving
} // namespace ascend

#endif // ASCEND_SERVING_WORKLOAD_HH
