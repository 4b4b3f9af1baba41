/**
 * @file
 * Overload-tolerant fleet serving: goodput and tail latency under
 * offered load, failures, and degradation policy.
 *
 * The sweep drives the serving::runFleet engine with a batch latency
 * curve measured on the repo's own chip simulator (resnet50 on the
 * training-SoC core at anchor batch sizes, memoized by the SimCache)
 * and an open-loop bursty arrival stream, across:
 *
 *   offered load x {shed, no-shed} x {faults, fault-free}
 *
 * The robustness claim the JSON captures: with admission control and
 * deadline-aware shedding the fleet holds goodput near saturation and
 * p99 within the SLO even at 2x offered load, while the ungoverned
 * fleet's tail diverges without bound. Failures cost warm-spare
 * failovers, retries and hedges instead of lost requests.
 *
 * Modes:
 *  - (no args): the sweep. Prints deterministic tables (byte-stable
 *    at any ASCEND_THREADS) and writes BENCH_serving.json;
 *  - --chaos, and its --run child: the SIGKILL/resume byte-diff
 *    experiment of bench/chaos_harness.hh, which also proves that its
 *    kills landed and its resumes adopted a checkpoint. The seed
 *    comes from ASCEND_CHAOS_SEED (default 5); CI runs two.
 *
 * The chaos scenario is bursty overload with replica failures and
 * hedged retries, on a synthetic latency curve.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/chaos_harness.hh"
#include "graph/zoo_graphs.hh"
#include "resilience/fault_domain.hh"
#include "serving/fleet.hh"
#include "soc/training_soc.hh"

using namespace ascend;
using resilience::CorrelatedFaultSpec;
using resilience::FaultSchedule;
using resilience::FaultSpec;
using serving::ArrivalSpec;
using serving::BatchLatencyModel;
using serving::FleetOptions;
using serving::FleetResult;
using serving::QosTier;
using serving::Request;

namespace {

/** One sweep configuration and its outcome. */
struct Cell
{
    double load = 0;    ///< offered / saturation
    bool shed = false;  ///< admission control + deadline drops on
    bool faults = false;
    FleetResult r;
};

/** The two QoS classes every sweep cell serves. */
std::vector<QosTier>
sweepTiers(double batch_latency_sec)
{
    QosTier premium;
    premium.name = "premium";
    premium.deadlineSec = 5.0 * batch_latency_sec;
    premium.share = 0.2;
    premium.sheddable = false;
    premium.reservedSlots = 2;
    QosTier standard;
    standard.name = "standard";
    standard.deadlineSec = 3.0 * batch_latency_sec;
    standard.share = 0.8;
    standard.sheddable = true;
    standard.reservedSlots = 0;
    return {premium, standard};
}

FleetOptions
sweepOptions(double batch_latency_sec, bool shed)
{
    FleetOptions o;
    o.replicas = 4;
    o.warmSpares = 1;
    o.failoverSec = 2.0 * batch_latency_sec;
    o.admission.enabled = shed;
    o.admission.slackFactor = 1.0;
    o.hedge.enabled = true;
    o.hedge.afterSec = 1.25 * batch_latency_sec;
    o.autoscale.enabled = true;
    o.autoscale.checkIntervalSec = 2.0 * batch_latency_sec;
    o.autoscale.queueDepthPerReplica = 16;
    o.autoscale.spinUpSec = 5.0 * batch_latency_sec;
    o.autoscale.maxExtraReplicas = 2;
    o.retry.maxRetries = 3;
    o.retry.timeoutSec = 0.5 * batch_latency_sec;
    o.retry.backoffBaseSec = 0.1 * batch_latency_sec;
    return o;
}

FaultSchedule
sweepFaults(double horizon_sec, unsigned replicas, bool enabled)
{
    FaultSpec spec;
    if (!enabled)
        return FaultSchedule::generate(spec);
    spec.seed = 8;
    spec.horizonSec = horizon_sec;
    spec.cores = replicas;
    // ~2 permanent failures and ~2 outages across the fleet per run,
    // plus one-in-four replicas straggling.
    spec.corePermanentPerSec = 2.0 / (horizon_sec * replicas);
    spec.coreTransientPerSec = 2.0 / (horizon_sec * replicas);
    spec.coreRepairSec = horizon_sec / 20.0;
    spec.stragglerFraction = 0.25;
    spec.stragglerSlowdown = 1.5;
    return FaultSchedule::generate(spec);
}

Cell
runCell(const BatchLatencyModel &model, double load, bool shed,
        bool faults_on)
{
    const double lb = model.latencySeconds(model.maxBatch());
    const FleetOptions options = sweepOptions(lb, shed);
    const double sat =
        model.saturationRequestsPerSec(options.replicas);

    ArrivalSpec arr;
    arr.seed = 41;
    arr.ratePerSec = load * sat;
    arr.horizonSec = 2000.0 / sat; // ~2000*load offered requests
    arr.burstFactor = 2.0;
    arr.burstPeriodSec = arr.horizonSec / 10.0;
    arr.burstDuty = 0.3;

    const std::vector<QosTier> tiers = sweepTiers(lb);
    const std::vector<Request> arrivals =
        serving::generateArrivals(arr, tiers);
    const FaultSchedule faults =
        sweepFaults(arr.horizonSec, options.replicas, faults_on);

    Cell c;
    c.load = load;
    c.shed = shed;
    c.faults = faults_on;
    c.r = serving::runFleet(arrivals, tiers, model, faults, options);
    return c;
}

std::string
ms(double sec)
{
    return TextTable::num(sec * 1e3, 3);
}

void
printTable(const std::vector<Cell> &cells, bool faults_on,
           double slo_sec)
{
    TextTable t(std::string("fleet under ") +
                (faults_on ? "seeded failures" : "no failures") +
                " (SLO p99 <= " + ms(slo_sec) + " ms)");
    t.header({"load", "policy", "offered", "shed", "goodput",
              "goodput%", "p50 ms", "p99 ms", "p999 ms", "failover",
              "hedges", "retries"});
    for (const Cell &c : cells) {
        if (c.faults != faults_on)
            continue;
        const double pct =
            c.r.offered
                ? 100.0 * double(c.r.goodput) / double(c.r.offered)
                : 0;
        t.row({TextTable::num(c.load, 2),
               c.shed ? "shed" : "no-shed",
               TextTable::num(c.r.offered),
               TextTable::num(c.r.shed),
               TextTable::num(c.r.goodput), TextTable::num(pct, 1),
               ms(c.r.p50), ms(c.r.p99), ms(c.r.p999),
               TextTable::num(c.r.failovers),
               TextTable::num(c.r.hedges),
               TextTable::num(c.r.retries)});
    }
    t.print(std::cout);
}

/**
 * One correlated-chaos configuration and its outcome. The three
 * defense levels bracket the metastable-failure story:
 *  - undefended: no admission control at all — the rack outage's
 *    backlog is never shed, every later request queues behind it, and
 *    the fleet stays degraded long after the fault clears;
 *  - governed: admission + deadline shedding with closed-loop clients
 *    re-offering shed work — bounded tail, but the synchronized
 *    re-offer wave costs goodput;
 *  - defended: governed plus jittered backoff, per-replica circuit
 *    breakers, and the brownout ladder (dispatching a cheaper model
 *    under sustained overload) — the backlog drains while the outage
 *    is still in progress.
 */
struct CorrCell
{
    std::string name;
    FleetResult r;
    /** Sim time after fault clearance until a full recovery window
     *  (windowed p99 within bound); -1 = never recovered. */
    double recoverySec = -1;
    /** On-time completions per sim-second after fault clearance. */
    double postGoodputRps = 0;
};

enum class Defense { Undefended, Governed, Defended };

std::uint64_t
faultSeedFromEnv()
{
    const char *env = std::getenv("ASCEND_FAULT_SEED");
    return env && *env ? std::strtoull(env, nullptr, 10) : 17;
}

FleetOptions
correlatedOptions(double batch_latency_sec, Defense defense,
                  std::uint64_t seed)
{
    const double lb = batch_latency_sec;
    FleetOptions o;
    o.replicas = 8; // two racks of four
    o.warmSpares = 0;
    o.admission.enabled = defense != Defense::Undefended;
    o.admission.slackFactor = 1.0;
    o.retry.maxRetries = 3;
    o.retry.timeoutSec = 0.5 * lb;
    o.retry.backoffBaseSec = 0.1 * lb;
    o.reoffer.enabled = true;
    o.reoffer.delaySec = 2.0 * lb;
    o.reoffer.maxReoffers = 2;
    if (defense == Defense::Defended) {
        o.retry.jitterFraction = 0.5;
        o.retry.jitterSeed = seed;
        o.health.enabled = true;
        o.health.cooloffSec = 2.0 * lb;
        o.brownout.enabled = true;
        o.brownout.enterQueueDepthPerReplica = 16;
        o.brownout.exitQueueDepthPerReplica = 2;
        o.brownout.minResidencySec = 5.0 * lb;
    }
    return o;
}

/** Windowed-p99 recovery point and post-clear goodput rate. */
void
recoveryMetrics(CorrCell &c, double clear_sec, double window_sec,
                double bound_sec)
{
    const FleetResult &r = c.r;
    std::uint64_t on_time = 0;
    for (std::size_t i = 0; i < r.completionsSec.size(); ++i)
        if (r.completionsSec[i] > clear_sec && r.completedOnTime[i])
            ++on_time;
    const double span = std::max(r.makespanSec - clear_sec, 1e-12);
    c.postGoodputRps = double(on_time) / span;

    for (unsigned k = 0;; ++k) {
        const double lo = clear_sec + double(k) * window_sec;
        if (lo >= r.makespanSec)
            return; // never recovered
        const double hi = lo + window_sec;
        std::vector<double> lat;
        for (std::size_t i = 0; i < r.completionsSec.size(); ++i)
            if (r.completionsSec[i] >= lo && r.completionsSec[i] < hi)
                lat.push_back(r.latencies[i]);
        if (lat.empty())
            continue; // recovery needs evidence, not silence
        std::sort(lat.begin(), lat.end());
        const double p99 = lat[(lat.size() - 1) * 99 / 100];
        if (p99 <= bound_sec) {
            c.recoverySec = hi - clear_sec;
            return;
        }
    }
}

/** Shared inputs of the three correlated-chaos cells. */
struct CorrSetup
{
    std::uint64_t seed = 0;
    std::string profile;
    double clearSec = 0;  ///< last fault event fully over
    double windowSec = 0; ///< recovery-scan window width
    double boundSec = 0;  ///< windowed-p99 recovery bound
    double recoveryWindowSec = 0; ///< CI bound on recoverySec
};

std::vector<CorrCell>
correlatedSweep(const BatchLatencyModel &model,
                const BatchLatencyModel &cheap, CorrSetup &setup)
{
    const double lb = model.latencySeconds(model.maxBatch());
    const double sat = model.saturationRequestsPerSec(8);

    // Flat arrivals just under saturation: the rack outage is the
    // only disturbance, so recovery time is attributable to it.
    ArrivalSpec arr;
    arr.seed = 43;
    arr.ratePerSec = 0.95 * sat;
    arr.horizonSec = 100.0 * lb;

    const std::vector<QosTier> tiers = sweepTiers(lb);
    const std::vector<Request> arrivals =
        serving::generateArrivals(arr, tiers);

    CorrelatedFaultSpec cspec;
    cspec.seed = setup.seed;
    cspec.horizonSec = arr.horizonSec;
    cspec.topology.replicas = 8;
    cspec.topology.replicasPerRack = 4;
    if (!resilience::applyFaultProfile(cspec, setup.profile))
        fatal("unknown ASCEND_FAULT_PROFILE '%s'",
              setup.profile.c_str());
    const FaultSchedule faults =
        resilience::generateCorrelated(cspec);

    setup.clearSec = 0;
    for (const resilience::FaultEvent &e : faults.events())
        setup.clearSec =
            std::max(setup.clearSec, e.timeSec + e.durationSec);
    setup.windowSec = 5.0 * lb;
    setup.boundSec = tiers[0].deadlineSec + lb;
    setup.recoveryWindowSec = 3.0 * setup.windowSec;

    const struct
    {
        const char *name;
        Defense defense;
    } kCells[] = {{"undefended", Defense::Undefended},
                  {"governed", Defense::Governed},
                  {"defended", Defense::Defended}};
    std::vector<CorrCell> cells;
    for (const auto &k : kCells) {
        CorrCell c;
        c.name = k.name;
        const FleetOptions o =
            correlatedOptions(lb, k.defense, setup.seed);
        c.r = serving::runFleet(
            arrivals, tiers, model, faults, o,
            k.defense == Defense::Defended ? &cheap : nullptr);
        recoveryMetrics(c, setup.clearSec, setup.windowSec,
                        setup.boundSec);
        cells.push_back(std::move(c));
    }
    return cells;
}

void
printCorrelated(const std::vector<CorrCell> &cells,
                const CorrSetup &setup)
{
    TextTable t("correlated rack outage (profile " + setup.profile +
                ", seed " + std::to_string(setup.seed) +
                "): clear " + ms(setup.clearSec) +
                " ms, recovery bound p99 <= " + ms(setup.boundSec) +
                " ms");
    t.header({"defense", "offered", "shed", "reoffer", "goodput",
              "brownout", "breaker", "p99 ms", "recover ms",
              "post-rps"});
    for (const CorrCell &c : cells)
        t.row({c.name, TextTable::num(c.r.offered),
               TextTable::num(c.r.shed),
               TextTable::num(c.r.reoffered),
               TextTable::num(c.r.goodput),
               TextTable::num(c.r.brownoutGoodput),
               TextTable::num(c.r.breakerTrips), ms(c.r.p99),
               c.recoverySec < 0 ? "never" : ms(c.recoverySec),
               TextTable::num(c.postGoodputRps, 1)});
    t.print(std::cout);
}

void
writeJson(const std::vector<Cell> &cells, double saturation_rps,
          double slo_sec, double p99_bound_sec,
          const std::vector<CorrCell> &corr, const CorrSetup &setup)
{
    std::ofstream out("BENCH_serving.json");
    out << "{\n  \"saturation_rps\": " << saturation_rps
        << ",\n  \"slo_p99_sec\": " << slo_sec
        // A governed fleet's hard tail bound: a request dispatched
        // just before its deadline still rides one full batch.
        << ",\n  \"p99_bound_sec\": " << p99_bound_sec
        << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        out << "    {\"load\": " << c.load
            << ", \"shed\": " << (c.shed ? "true" : "false")
            << ", \"faults\": " << (c.faults ? "true" : "false")
            << ", \"offered\": " << c.r.offered
            << ", \"admitted\": " << c.r.admitted
            << ", \"shed_count\": " << c.r.shed
            << ", \"completed\": " << c.r.completed
            << ", \"goodput\": " << c.r.goodput
            << ", \"p50_sec\": " << c.r.p50
            << ", \"p99_sec\": " << c.r.p99
            << ", \"p999_sec\": " << c.r.p999
            << ", \"retries\": " << c.r.retries
            << ", \"hedges\": " << c.r.hedges
            << ", \"failures\": " << c.r.replicaFailures
            << ", \"failovers\": " << c.r.failovers
            << ", \"autoscale_ups\": " << c.r.autoscaleUps
            << ", \"brownout_goodput\": " << c.r.brownoutGoodput
            << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"correlated\": {\n    \"seed\": " << setup.seed
        << ",\n    \"profile\": \"" << setup.profile
        << "\",\n    \"clear_sec\": " << setup.clearSec
        << ",\n    \"window_sec\": " << setup.windowSec
        << ",\n    \"recovery_bound_sec\": " << setup.boundSec
        << ",\n    \"recovery_window_sec\": "
        << setup.recoveryWindowSec << ",\n    \"cells\": [\n";
    for (std::size_t i = 0; i < corr.size(); ++i) {
        const CorrCell &c = corr[i];
        out << "      {\"name\": \"" << c.name
            << "\", \"offered\": " << c.r.offered
            << ", \"shed\": " << c.r.shed
            << ", \"completed\": " << c.r.completed
            << ", \"goodput\": " << c.r.goodput
            << ", \"reoffered\": " << c.r.reoffered
            << ", \"breaker_trips\": " << c.r.breakerTrips
            << ", \"brownout_entries\": " << c.r.brownoutEntries
            << ", \"brownout_goodput\": " << c.r.brownoutGoodput
            << ", \"brownout_sec\": " << c.r.brownoutSec
            << ", \"p99_sec\": " << c.r.p99
            << ", \"makespan_sec\": " << c.r.makespanSec
            << ", \"recovery_sec\": " << c.recoverySec
            << ", \"post_goodput_rps\": " << c.postGoodputRps << "}"
            << (i + 1 < corr.size() ? "," : "") << "\n";
    }
    out << "    ]\n  }\n}\n";
    // stderr: keep the diffable stdout byte-identical.
    std::cerr << "wrote BENCH_serving.json\n";
}

int
sweep()
{
    bench::banner("Fleet serving under overload: admission control, "
                  "hedged retries, failure-aware degradation");

    // Batch latency measured on the chip simulator: resnet50 on the
    // training-SoC core at anchor batch sizes (SimCache-memoized).
    // The surrogate tier answers off-grid anchors by error-bounded
    // interpolation (predictions are pure functions of the shape, so
    // the curve stays byte-stable), which is what makes the dense
    // 12-anchor curve through batch 16 affordable here.
    soc::TrainingSoc soc910;
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    runtime::SimSession session(soc910.coreConfig(), {}, nullptr, {},
                                sur);
    const BatchLatencyModel model = BatchLatencyModel::fromGraph(
        session,
        [](unsigned batch) {
            return graph::zoo::resnet50Graph(batch);
        },
        BatchLatencyModel::denseAnchors(16),
        session.config().clockGhz);

    const double lb = model.latencySeconds(model.maxBatch());
    const double sat = model.saturationRequestsPerSec(4);
    std::cout << "batch curve: 1 -> "
              << ms(model.latencySeconds(1)) << " ms, "
              << model.maxBatch() << " -> " << ms(lb)
              << " ms; 4-replica saturation "
              << TextTable::num(sat, 1) << " req/s\n";

    std::vector<Cell> cells;
    for (double load : {0.5, 1.0, 1.5, 2.0})
        for (bool faults_on : {false, true})
            for (bool shed : {true, false})
                cells.push_back(
                    runCell(model, load, shed, faults_on));

    // The governed fleet's SLO: the premium deadline.
    const double slo = sweepTiers(lb)[0].deadlineSec;
    printTable(cells, false, slo);
    printTable(cells, true, slo);
    std::cout << "shedding holds p99 near the SLO past saturation; "
                 "the ungoverned fleet's\ntail grows with every "
                 "queued request. failures cost failovers and "
                 "retries,\nnot lost requests.\n";

    // Correlated-chaos sweep: one rack outage against three defense
    // levels. The brownout ladder's cheaper rung is mobilenetV2 on
    // the same core, measured through the same surrogate session.
    const BatchLatencyModel cheap = BatchLatencyModel::fromGraph(
        session,
        [](unsigned batch) {
            return graph::zoo::mobilenetV2Graph(batch);
        },
        BatchLatencyModel::denseAnchors(16),
        session.config().clockGhz);
    CorrSetup setup;
    setup.seed = faultSeedFromEnv();
    setup.profile = resilience::faultProfileFromEnv("rack");
    const std::vector<CorrCell> corr =
        correlatedSweep(model, cheap, setup);
    printCorrelated(corr, setup);
    std::cout << "defenses (jitter + breakers + brownout) drain the "
                 "rack outage's backlog\nwhile it is still in "
                 "progress; the undefended fleet stays degraded "
                 "long\nafter the fault clears.\n";
    writeJson(cells, sat, slo, slo + lb, corr, setup);
    return 0;
}

/**
 * The chaos harness's scenario: one seeded run under @p control. Its
 * curve is synthetic: crash consistency is under test, not the cost
 * model.
 */
bench::ChaosRun
chaosRun(std::uint64_t seed, const resilience::RunControl &control)
{
    const BatchLatencyModel model =
        BatchLatencyModel::linear(2e-3, 5e-4, 8);
    const double lb = model.latencySeconds(8);
    const std::vector<QosTier> tiers = sweepTiers(lb);
    FleetOptions options = sweepOptions(lb, true);
    static_cast<resilience::RunControl &>(options) = control;
    options.warmSpares = 2;
    options.checkpointIntervalSec = 5.0 * lb;

    ArrivalSpec arr;
    arr.seed = seed;
    arr.ratePerSec = 1.2 * model.saturationRequestsPerSec(options.replicas);
    arr.horizonSec = 0.25;
    arr.burstFactor = 2.0;
    arr.burstPeriodSec = 0.05;
    arr.burstDuty = 0.3;

    FaultSpec spec;
    spec.seed = seed;
    spec.horizonSec = arr.horizonSec;
    spec.cores = options.replicas;
    spec.corePermanentPerSec = 8.0 / (spec.horizonSec * spec.cores);
    spec.coreTransientPerSec = 8.0 / (spec.horizonSec * spec.cores);
    spec.coreRepairSec = 0.02;
    spec.stragglerFraction = 0.5;
    spec.stragglerSlowdown = 1.8;

    const FleetResult r = serving::runFleet(
        serving::generateArrivals(arr, tiers), tiers, model,
        FaultSchedule::generate(spec), options);
    const unsigned events = unsigned(
        std::count(r.eventLog.begin(), r.eventLog.end(), '\n'));
    return {r.report(), events,
            std::to_string(events) + " events, " +
                std::to_string(r.completed) + " completed / " +
                std::to_string(r.offered) + " offered"};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (const std::optional<int> rc =
            bench::chaosHarness(argc, argv, 5, chaosRun))
        return *rc;
    return sweep();
}
