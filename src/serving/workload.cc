/**
 * @file
 * Seeded arrival-stream synthesis.
 */

#include "serving/workload.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/field.hh"
#include "common/rng.hh"

namespace ascend {
namespace serving {

namespace {

/** Jitter stream: one draw per arrival ordinal. */
constexpr std::uint64_t kJitterSalt = 0x9e3779b97f4a7c15ULL;
/** Tier stream: independent of the jitter stream. */
constexpr std::uint64_t kTierSalt = 0xd1342543de82ef95ULL;

std::uint32_t
drawTier(Rng &rng, const std::vector<QosTier> &tiers)
{
    // Cumulative-share walk; any residual mass (shares not summing
    // to one) falls to the last tier, so the draw always lands.
    const double u = rng.uniformReal();
    double cum = 0;
    for (std::size_t i = 0; i + 1 < tiers.size(); ++i) {
        cum += tiers[i].share;
        if (u < cum)
            return std::uint32_t(i);
    }
    return std::uint32_t(tiers.size() - 1);
}

} // anonymous namespace

std::vector<Request>
generateArrivals(const ArrivalSpec &spec,
                 const std::vector<QosTier> &tiers)
{
    checkFields(spec, "arrival spec");
    // Arrival ids count up from 0 and stay below the re-offer ids; the
    // peak rate over the whole horizon bounds how many there are.
    const double most = spec.ratePerSec * spec.horizonSec * spec.burstFactor;
    if (!(most < double(kReofferIdBase)))
        throwError(ErrorCode::ConfigValidation,
                   "arrival spec: up to %g arrivals reach the re-offer "
                   "id base 2^48", most);
    std::vector<Request> out;
    if (tiers.empty() || spec.ratePerSec <= 0 || spec.horizonSec <= 0)
        return out;

    // Square-wave modulation, normalized so the mean over one period
    // is exactly ratePerSec: each period spends burstDuty at
    // calm*burstFactor and the rest at calm.
    const bool bursty =
        spec.burstPeriodSec > 0 && spec.burstFactor > 1.0 &&
        spec.burstDuty > 0 && spec.burstDuty < 1;
    const double meanFactor =
        bursty ? spec.burstDuty * spec.burstFactor +
                     (1.0 - spec.burstDuty)
               : 1.0;
    const double calmRate = spec.ratePerSec / meanFactor;
    const double peakRate = calmRate * spec.burstFactor;

    Rng jitter(spec.seed ^ kJitterSalt);
    Rng tierRng(spec.seed ^ kTierSalt);

    out.reserve(std::size_t(spec.ratePerSec * spec.horizonSec) + 8);

    // Arrival j lands where the cumulative rate integral Lambda(t)
    // reaches j + u_j. Lambda is piecewise linear (peak segment then
    // calm segment per period), so the walk below merges the target
    // sequence against segment boundaries: O(arrivals + segments),
    // pure arithmetic.
    double segStart = 0;    ///< current segment start time
    double lambdaAtSeg = 0; ///< Lambda(segStart)
    bool inPeak = bursty;   ///< each period opens with its burst
    std::uint64_t j = 0;
    while (segStart < spec.horizonSec) {
        const double rate = inPeak ? peakRate : calmRate;
        double segLen;
        if (!bursty) {
            segLen = spec.horizonSec - segStart;
        } else {
            segLen = inPeak
                         ? spec.burstPeriodSec * spec.burstDuty
                         : spec.burstPeriodSec * (1.0 - spec.burstDuty);
            segLen = std::min(segLen, spec.horizonSec - segStart);
        }
        const double lambdaEnd = lambdaAtSeg + rate * segLen;
        while (true) {
            const double target = double(j) + jitter.uniformReal();
            if (target >= lambdaEnd)
                break; // next arrival lies beyond this segment
            const double t =
                segStart + (target - lambdaAtSeg) / rate;
            if (t >= spec.horizonSec)
                break;
            Request r;
            r.id = j;
            r.arrivalSec = t;
            r.tier = drawTier(tierRng, tiers);
            out.push_back(r);
            ++j;
        }
        segStart += segLen;
        lambdaAtSeg = lambdaEnd;
        if (bursty)
            inPeak = !inPeak;
    }
    return out;
}

std::string
fingerprint(const std::vector<QosTier> &tiers)
{
    std::string s = "tiers:";
    putU64(s, tiers.size());
    for (const QosTier &t : tiers)
        putField(s, t);
    return s;
}

} // namespace serving
} // namespace ascend
