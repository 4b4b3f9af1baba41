/**
 * @file
 * The four benchmark workloads. Each one stresses a different slice of
 * the stack, and each is stratified: every round holds the same mix of
 * op kinds, and the seed only draws the parameters and the order, so
 * rounds cost the same whatever the seed.
 *
 *  - dse-exact: compiler + core_sim through exact-tier sessions with a
 *    fresh cache per op (write-heavy cache, no surrogate, no des);
 *  - graph-sweep: one shared surrogate-on session answering repeated
 *    whole-graph queries (read-heavy cache, lowering, prediction);
 *  - llm-fleet: decoder latency curve in setup, then fleet what-if runs
 *    (des event queue, fleet step);
 *  - chip-fanout: synthetic chip-sim task queues (des phases, the
 *    thread pool, the active-set loop).
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <mutex>
#include <set>
#include <string>

#include "arch/core_config.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "perf.hh"
#include "resilience/fault_domain.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"
#include "serving/fleet.hh"
#include "soc/chip_sim.hh"

namespace perf {

using namespace ascend;
using surrogate::Outcome;

namespace {

// ---------------------------------------------------------------------
// Traced decomposition of the graph entry points.
//
// While a tracer is active, graph::runGraph and graph::graphResult are
// replayed through their public parts (graph::lower, then one
// SimSession::runLayer per step) so every layer call gets a span. The
// replay returns the same result; the digest check enforces it.
// ---------------------------------------------------------------------

/** Per-op scratch of a traced graph query. */
struct QueryTrace
{
    /** Surrogate-off sessions: layer shapes already queried this op.
     *  The first query of a shape on a fresh cache is the exact one. */
    std::set<std::string> seen;
    std::mutex seenMutex;
    /** Layers answered by an exact simulation: the side calls time
     *  LayerCompiler::compile and CoreSim::run on them. */
    std::vector<model::Layer> exactLayers;
};

const char *
tierSpan(Outcome oc, bool first_seen)
{
    switch (oc) {
      case Outcome::CacheHit:  return "runtime.query.hit";
      case Outcome::Predicted: return "runtime.query.predicted";
      case Outcome::Disabled:
        return first_seen ? "runtime.query.exact" : "runtime.query.hit";
      case Outcome::FallbackSmall:
      case Outcome::FallbackHull:
      case Outcome::FallbackBudget:
        return "runtime.query.fallback";
      case Outcome::Anchor:
      case Outcome::SpotCheck:
        break;
    }
    return "runtime.query.exact";
}

bool
isExactTier(const char *span)
{
    return std::strcmp(span, "runtime.query.exact") == 0 ||
           std::strcmp(span, "runtime.query.fallback") == 0;
}

/** graph::runGraph, one span per public call. */
graph::GraphRun
runGraphTraced(const runtime::SimSession &session, const graph::Graph &g,
               QueryTrace &qt)
{
    const Span outer("graph.runGraph");
    graph::GraphRun run;
    {
        Span span("graph.lower");
        span.addWork(g.nodes.size());
        run.steps = graph::lower(g);
    }
    run.runs.resize(run.steps.size());
    std::vector<const char *> tiers(run.steps.size());
    const std::uint64_t parent = currentSpan();
    runtime::parallelFor(run.steps.size(), [&](std::size_t i) {
        const model::Layer &layer = run.steps[i].layer;
        bool first = false;
        if (!session.surrogateOptions().enabled) {
            const std::lock_guard<std::mutex> lock(qt.seenMutex);
            first = qt.seen.insert(runtime::fingerprint(layer)).second;
        }
        Span span("runtime.query", parent);
        Outcome oc = Outcome::Disabled;
        run.runs[i].layer = layer;
        run.runs[i].result = session.runLayer(layer, &oc);
        tiers[i] = tierSpan(oc, first);
        span.setName(tiers[i]);
    });
    for (std::size_t i = 0; i < run.runs.size(); ++i) {
        run.total.accumulate(run.runs[i].result);
        if (isExactTier(tiers[i]))
            qt.exactLayers.push_back(run.steps[i].layer);
    }
    session.cache().insert(graph::graphCacheKey(session, g), run.total);
    return run;
}

/** graph::graphResult, traced when a tracer is active. */
core::SimResult
graphResult(const runtime::SimSession &session, const graph::Graph &g,
            QueryTrace &qt)
{
    if (!activeTracer())
        return graph::graphResult(session, g);
    const Span outer("graph.graphResult");
    core::SimResult cached;
    {
        Span span("graph.cache_probe");
        if (session.cache().lookup(graph::graphCacheKey(session, g),
                                   cached)) {
            span.setName("graph.cache_hit");
            return cached;
        }
    }
    return runGraphTraced(session, g, qt).total;
}

/** graph::runGraph, traced when a tracer is active. */
graph::GraphRun
runGraph(const runtime::SimSession &session, const graph::Graph &g,
         QueryTrace &qt)
{
    if (!activeTracer())
        return graph::runGraph(session, g);
    return runGraphTraced(session, g, qt);
}

/**
 * Side calls: time the compiler and the core simulator on every layer
 * an exact simulation answered. Run after the op, so they never count
 * in its time.
 */
void
sideCalls(const runtime::SimSession &session, QueryTrace &qt)
{
    if (!activeTracer() || qt.exactLayers.empty())
        return;
    const core::CoreSim sim(session.config());
    for (const model::Layer &layer : qt.exactLayers) {
        isa::Program prog;
        {
            Span span("compiler.compile", 0);
            prog = session.layerCompiler().compile(layer);
        }
        Span span("core.run", 0);
        span.addWork(sim.run(prog).instrsExecuted);
    }
    qt.exactLayers.clear();
}

/** Invariants every simulated result obeys. */
std::string
simViolation(const core::SimResult &r)
{
    for (std::size_t p = 0; p < r.pipes.size(); ++p)
        if (r.pipes[p].busyCycles > r.totalCycles)
            return "pipe " + std::to_string(p) + " busy " +
                   std::to_string(r.pipes[p].busyCycles) + " > total " +
                   std::to_string(r.totalCycles);
    return {};
}

graph::Graph
buildGraph(const std::function<graph::Graph()> &builder)
{
    Span span("graph.build");
    graph::Graph g = builder();
    span.addWork(g.nodes.size());
    return g;
}

double
relErr(double pred, double exact)
{
    return exact > 0 ? std::fabs(pred - exact) / exact : 0;
}

// ---------------------------------------------------------------------
// dse-exact
// ---------------------------------------------------------------------

class DseExact : public Workload
{
  public:
    explicit DseExact(std::uint64_t seed) : seed_(seed) {}

    static constexpr std::size_t kPerNetwork = 12;

    void
    setup() override
    {
        nets_.clear();
        nets_.push_back(buildGraph([] {
            return graph::zoo::resnet50Graph(1);
        }));
        nets_.push_back(buildGraph([] {
            return graph::zoo::resnet50Graph(16);
        }));
        nets_.push_back(buildGraph([] {
            return graph::zoo::mobilenetV2Graph(1);
        }));
        nets_.push_back(buildGraph([] {
            return graph::zoo::bertBaseGraph(1, 128);
        }));
        nets_.push_back(buildGraph([] {
            return graph::zoo::bertBaseGraph(4, 384);
        }));
        graph::DecoderConfig dec;
        nets_.push_back(buildGraph([&] {
            return graph::prefillGraph(dec, 512);
        }));
        dec.batch = 8;
        nets_.push_back(buildGraph([&] {
            return graph::decodeGraph(dec, 2048);
        }));

        points_.clear();
        for (auto v : {arch::CoreVersion::Max, arch::CoreVersion::Std,
                       arch::CoreVersion::Mini})
            for (Bytes l1 : {512 * kKiB, 1 * kMiB, 2 * kMiB})
                for (Bytes l0 : {32 * kKiB, 64 * kKiB})
                    for (Bytes ub : {128 * kKiB, 256 * kKiB})
                        for (Bytes bus : {47, 94, 188}) {
                            arch::CoreConfig c = arch::makeCoreConfig(v);
                            c.l1Bytes = l1;
                            c.l0aBytes = c.l0bBytes = l0;
                            c.ubBytes = ub;
                            c.busExtBytesPerCycle = bus;
                            c.validate();
                            points_.push_back(c);
                        }

        // Each network walks its own seeded permutation of the design
        // points, so every (point, network) pair recurs at one rate.
        perms_.assign(nets_.size(), {});
        for (std::size_t n = 0; n < nets_.size(); ++n) {
            perms_[n].resize(points_.size());
            for (std::size_t p = 0; p < points_.size(); ++p)
                perms_[n][p] = p;
            Rng rng(mixSeed(seed_, 1, n));
            rng.shuffle(perms_[n]);
        }
    }

    std::size_t
    roundSize() const override
    {
        return nets_.size() * kPerNetwork;
    }

    void
    beginRound(std::uint64_t round) override
    {
        ops_.clear();
        for (std::size_t n = 0; n < nets_.size(); ++n)
            for (std::size_t k = 0; k < kPerNetwork; ++k)
                ops_.push_back(
                    {n, perms_[n][(round * kPerNetwork + k) %
                                  points_.size()]});
        Rng rng(mixSeed(seed_, 2, round));
        rng.shuffle(ops_);
    }

    OpResult
    run(std::size_t i) override
    {
        const Op &op = ops_[i];
        qt_.seen.clear();
        session_ = std::make_unique<runtime::SimSession>(
            points_[op.point], compiler::CompileOptions{},
            std::make_shared<runtime::SimCache>(),
            resilience::ResilienceOptions{},
            surrogate::SurrogateOptions{});
        const auto before = session_->cache().stats();
        const graph::GraphRun gr =
            runGraph(*session_, nets_[op.net], qt_);
        tallyCache(before, session_->cache().stats());

        OpResult res;
        Digest d;
        d.simResult(gr.total);
        Cycles sum = 0;
        for (const runtime::LayerRun &lr : gr.runs) {
            d.simResult(lr.result);
            sum += lr.result.totalCycles;
            if (res.violation.empty())
                res.violation = simViolation(lr.result);
        }
        if (res.violation.empty())
            res.violation = simViolation(gr.total);
        if (res.violation.empty() && sum != gr.total.totalCycles)
            res.violation = "graph total != sum of step cycles";
        res.digest = d.value();
        return res;
    }

    void
    check(std::size_t, OpResult &) override
    {
        sideCalls(*session_, qt_);
        session_.reset();
    }

  private:
    struct Op
    {
        std::size_t net = 0;
        std::size_t point = 0;
    };

    std::uint64_t seed_;
    std::vector<graph::Graph> nets_;
    std::vector<arch::CoreConfig> points_;
    std::vector<std::vector<std::size_t>> perms_;
    std::vector<Op> ops_;
    std::unique_ptr<runtime::SimSession> session_;
    QueryTrace qt_;
};

// ---------------------------------------------------------------------
// graph-sweep
// ---------------------------------------------------------------------

class GraphSweep : public Workload
{
  public:
    explicit GraphSweep(std::uint64_t seed) : seed_(seed) {}

    /** Repeats of every grid shape per round. */
    static constexpr std::size_t kRepeats = 4;
    /** Every kHoldOut-th op is re-run on an exact session. */
    static constexpr std::size_t kHoldOut = 16;

    void
    setup() override
    {
        grid_.clear();
        graph::DecoderConfig dec;
        for (unsigned b : {1u, 2u, 4u, 8u, 16u, 32u})
            for (unsigned ctx : {128u, 512u, 2048u, 8192u}) {
                dec.batch = b;
                grid_.push_back(buildGraph(
                    [&] { return graph::decodeGraph(dec, ctx); }));
            }
        dec.batch = 1;
        for (unsigned len : {64u, 128u, 256u, 512u, 1024u, 2048u})
            grid_.push_back(
                buildGraph([&] { return graph::prefillGraph(dec, len); }));
        for (unsigned b : {1u, 2u, 4u, 8u})
            for (unsigned seq : {64u, 128u, 256u, 512u})
                grid_.push_back(buildGraph(
                    [&] { return graph::zoo::bertBaseGraph(b, seq); }));
        for (unsigned b : {1u, 2u, 4u, 8u, 16u, 32u}) {
            grid_.push_back(buildGraph(
                [&] { return graph::zoo::resnet50Graph(b); }));
            grid_.push_back(buildGraph(
                [&] { return graph::zoo::mobilenetV2Graph(b); }));
        }
    }

    std::size_t
    roundSize() const override
    {
        return grid_.size() * kRepeats;
    }

    void
    beginRound(std::uint64_t round) override
    {
        surrogate::SurrogateOptions sur;
        sur.enabled = true;
        const arch::CoreConfig core =
            arch::makeCoreConfig(arch::CoreVersion::Max);
        session_ = std::make_unique<runtime::SimSession>(
            core, compiler::CompileOptions{},
            std::make_shared<runtime::SimCache>(),
            resilience::ResilienceOptions{}, sur);
        exact_ = std::make_unique<runtime::SimSession>(
            core, compiler::CompileOptions{},
            std::make_shared<runtime::SimCache>(),
            resilience::ResilienceOptions{},
            surrogate::SurrogateOptions{});
        ops_.clear();
        for (std::size_t k = 0; k < kRepeats; ++k)
            for (std::size_t s = 0; s < grid_.size(); ++s)
                ops_.push_back(s);
        Rng rng(mixSeed(seed_, 3, round));
        rng.shuffle(ops_);
    }

    OpResult
    run(std::size_t i) override
    {
        const auto before = session_->cache().stats();
        last_ = graphResult(*session_, grid_[ops_[i]], qt_);
        tallyCache(before, session_->cache().stats());
        OpResult res;
        Digest d;
        d.simResult(last_);
        res.digest = d.value();
        res.violation = simViolation(last_);
        return res;
    }

    void
    check(std::size_t i, OpResult &res) override
    {
        sideCalls(*session_, qt_);
        if (i % kHoldOut != kHoldOut - 1)
            return;
        // The hold-out runs untraced on its own cache: it is a
        // reference, not part of the workload.
        Tracer *const tracer = activeTracer();
        setActiveTracer(nullptr);
        const core::SimResult ref =
            graph::graphResult(*exact_, grid_[ops_[i]]);
        setActiveTracer(tracer);
        const double err =
            relErr(double(last_.totalCycles), double(ref.totalCycles));
        maxErr_ = std::max(maxErr_, err);
        ++checks_;
        if (err > kErrBudget && res.violation.empty())
            res.violation = "prediction error " + std::to_string(err) +
                            " over the error budget";
    }

    double predMaxRelErr() const override { return maxErr_; }
    std::uint64_t predChecks() const override { return checks_; }
    bool surrogateOn() const override { return true; }

  private:
    std::uint64_t seed_;
    std::vector<graph::Graph> grid_;
    std::vector<std::size_t> ops_;
    std::unique_ptr<runtime::SimSession> session_;
    std::unique_ptr<runtime::SimSession> exact_;
    core::SimResult last_;
    QueryTrace qt_;
    double maxErr_ = 0;
    std::uint64_t checks_ = 0;
};

// ---------------------------------------------------------------------
// llm-fleet
// ---------------------------------------------------------------------

class LlmFleet : public Workload
{
  public:
    explicit LlmFleet(std::uint64_t seed) : seed_(seed) {}

    static constexpr unsigned kReplicas = 8;
    static constexpr unsigned kMaxBatch = 32;
    static constexpr unsigned kCtx = 1024;
    /** Offered requests per op; the arrival horizon is sized from it. */
    static constexpr double kRequestsPerOp = 10000;

    enum class Faults { None, Independent, Rack };
    enum class Policy { NoShed, Shed, Defended };

    static graph::DecoderConfig
    decoder(unsigned blocks)
    {
        graph::DecoderConfig cfg;
        cfg.name = "decoder_1b";
        cfg.hidden = 1536;
        cfg.heads = 16;
        cfg.ffn = 6144;
        cfg.blocks = blocks;
        return cfg;
    }

    /**
     * The decoder's batch-latency curve: BatchLatencyModel::fromGraph
     * over denseAnchors, replayed call by call while traced.
     */
    static serving::BatchLatencyModel
    curve(const runtime::SimSession &session, unsigned blocks,
          QueryTrace &qt)
    {
        Span span("serving.curve_build");
        const graph::DecoderConfig cfg = decoder(blocks);
        const auto build = [&](unsigned b) {
            graph::DecoderConfig c = cfg;
            c.batch = b;
            return buildGraph([&] { return graph::decodeGraph(c, kCtx); });
        };
        const auto anchors =
            serving::BatchLatencyModel::denseAnchors(kMaxBatch);
        const double ghz = session.config().clockGhz;
        if (!activeTracer())
            return serving::BatchLatencyModel::fromGraph(session, build,
                                                         anchors, ghz);
        std::vector<std::pair<unsigned, double>> pts;
        for (unsigned b : anchors)
            pts.emplace_back(
                b, graphResult(session, build(b), qt).seconds(ghz));
        return serving::BatchLatencyModel::fromPoints(std::move(pts));
    }

    void
    setup() override
    {
        surrogate::SurrogateOptions sur;
        sur.enabled = true;
        const runtime::SimSession session(
            arch::makeCoreConfig(arch::CoreVersion::Max),
            compiler::CompileOptions{},
            std::make_shared<runtime::SimCache>(),
            resilience::ResilienceOptions{}, sur);
        const auto before = session.cache().stats();
        model_ = curve(session, 24, qt_);
        brownout_ = curve(session, 12, qt_);
        tallyCache(before, session.cache().stats());
        sideCalls(session, qt_);
    }

    /**
     * Offered load over saturation. Exactly 1.0 is left out on purpose:
     * at the knee the queue, and so an op's cost, swings with every
     * arrival draw, and those ops would sit at the median op time.
     */
    static constexpr double kLoads[] = {0.5, 0.7, 0.85, 1.5, 2.0};
    static constexpr std::size_t kNumLoads = std::size(kLoads);

    /** Variant v: load v % 5, faults v / 5 % 3, policy v / 15. */
    std::size_t roundSize() const override { return kNumLoads * 3 * 3; }

    void
    beginRound(std::uint64_t round) override
    {
        if (!checkedCurve_)
            checkCurve();
        round_ = round;
        order_.resize(roundSize());
        for (std::size_t v = 0; v < order_.size(); ++v)
            order_[v] = v;
        Rng rng(mixSeed(seed_, 4, round));
        rng.shuffle(order_);
    }

    void
    prepare(std::size_t i) override
    {
        const std::size_t v = order_[i];
        load_ = kLoads[v % kNumLoads];
        faultKind_ = Faults(v / kNumLoads % 3);
        policy_ = Policy(v / (kNumLoads * 3));
        const std::uint64_t opSeed = mixSeed(seed_, 5 + round_, i);

        const double lb = model_.latencySeconds(model_.maxBatch());
        const double sat = model_.saturationRequestsPerSec(kReplicas);
        tiers_ = tiers(lb);
        serving::ArrivalSpec arr;
        arr.seed = opSeed;
        arr.ratePerSec = load_ * sat;
        arr.horizonSec = kRequestsPerOp / arr.ratePerSec;
        arr.burstFactor = 2.0;
        arr.burstPeriodSec = arr.horizonSec / 10.0;
        arr.burstDuty = 0.3;
        {
            Span span("serving.arrivals");
            arrivals_ = serving::generateArrivals(arr, tiers_);
            span.addWork(arrivals_.size());
        }
        faults_ = faultSchedule(arr.horizonSec, opSeed);
        options_ = options(lb, opSeed);
    }

    OpResult
    run(std::size_t i) override
    {
        Span span("serving.runFleet");
        const serving::FleetResult r = serving::runFleet(
            arrivals_, tiers_, model_, faults_, options_,
            policy_ == Policy::Defended ? &brownout_ : nullptr);
        span.addWork(r.offered);

        OpResult res;
        Digest d;
        for (std::uint64_t v :
             {r.offered, r.admitted, r.shed, r.completed, r.goodput,
              r.retries, r.hedges, r.replicaFailures, r.failovers,
              r.autoscaleUps, r.reoffered, r.breakerTrips,
              r.brownoutEntries, r.brownoutCompleted, r.brownoutGoodput})
            d.u64(v);
        for (double v : {r.brownoutSec, r.makespanSec, r.p50, r.p99,
                         r.p999})
            d.f64(v);
        for (double v : r.latencies)
            d.f64(v);
        for (double v : r.completionsSec)
            d.f64(v);
        d.bytes(r.completedOnTime.data(), r.completedOnTime.size());
        res.digest = d.value();
        if (r.completed + r.shed != r.offered)
            res.violation =
                "completed " + std::to_string(r.completed) + " + shed " +
                std::to_string(r.shed) + " != offered " +
                std::to_string(r.offered) + " (variant " +
                std::to_string(order_[i]) + ")";
        return res;
    }

    double predMaxRelErr() const override { return maxErr_; }
    std::uint64_t predChecks() const override { return checks_; }
    bool surrogateOn() const override { return true; }

  private:
    static std::vector<serving::QosTier>
    tiers(double lb)
    {
        serving::QosTier premium;
        premium.name = "premium";
        premium.deadlineSec = 5.0 * lb;
        premium.share = 0.2;
        premium.sheddable = false;
        premium.reservedSlots = 2;
        serving::QosTier standard;
        standard.name = "standard";
        standard.deadlineSec = 3.0 * lb;
        standard.share = 0.8;
        return {premium, standard};
    }

    resilience::FaultSchedule
    faultSchedule(double horizon, std::uint64_t seed) const
    {
        if (faultKind_ == Faults::Independent) {
            resilience::FaultSpec spec;
            spec.seed = seed;
            spec.horizonSec = horizon;
            spec.cores = kReplicas;
            spec.corePermanentPerSec = 2.0 / (horizon * kReplicas);
            spec.coreTransientPerSec = 2.0 / (horizon * kReplicas);
            spec.coreRepairSec = horizon / 20.0;
            spec.stragglerFraction = 0.25;
            spec.stragglerSlowdown = 1.5;
            return resilience::FaultSchedule::generate(spec);
        }
        resilience::CorrelatedFaultSpec cspec;
        cspec.seed = seed;
        cspec.horizonSec = horizon;
        cspec.topology.replicas = kReplicas;
        cspec.topology.replicasPerRack = 4;
        resilience::applyFaultProfile(
            cspec, faultKind_ == Faults::Rack ? "rack" : "none");
        return resilience::generateCorrelated(cspec);
    }

    serving::FleetOptions
    options(double lb, std::uint64_t seed) const
    {
        serving::FleetOptions o;
        o.replicas = kReplicas;
        o.warmSpares = 1;
        o.failoverSec = 2.0 * lb;
        o.admission.enabled = policy_ != Policy::NoShed;
        // Hedging only where nothing is shed: with admission control,
        // hedges and independent faults together, runFleet can count a
        // request both completed and shed (completed + shed > offered),
        // which would fail every such op.
        o.hedge.enabled = policy_ == Policy::NoShed;
        o.hedge.afterSec = 1.25 * lb;
        o.autoscale.enabled = true;
        o.autoscale.checkIntervalSec = 2.0 * lb;
        o.autoscale.queueDepthPerReplica = 16;
        o.autoscale.spinUpSec = 5.0 * lb;
        o.autoscale.maxExtraReplicas = 2;
        o.retry.maxRetries = 3;
        o.retry.timeoutSec = 0.5 * lb;
        o.retry.backoffBaseSec = 0.1 * lb;
        if (policy_ != Policy::NoShed) {
            o.reoffer.enabled = true;
            o.reoffer.delaySec = 2.0 * lb;
        }
        if (policy_ == Policy::Defended) {
            o.retry.jitterFraction = 0.5;
            o.retry.jitterSeed = seed;
            o.health.enabled = true;
            o.health.cooloffSec = 2.0 * lb;
            o.brownout.enabled = true;
            o.brownout.minResidencySec = 5.0 * lb;
        }
        return o;
    }

    /** The surrogate curve against an exact one over the same anchors. */
    void
    checkCurve()
    {
        checkedCurve_ = true;
        Tracer *const tracer = activeTracer();
        setActiveTracer(nullptr);
        const runtime::SimSession exact(
            arch::makeCoreConfig(arch::CoreVersion::Max),
            compiler::CompileOptions{},
            std::make_shared<runtime::SimCache>(),
            resilience::ResilienceOptions{},
            surrogate::SurrogateOptions{});
        QueryTrace unused;
        const serving::BatchLatencyModel ref = curve(exact, 24, unused);
        setActiveTracer(tracer);
        for (std::size_t k = 0; k < ref.points().size(); ++k) {
            maxErr_ = std::max(maxErr_,
                               relErr(model_.points()[k].second,
                                      ref.points()[k].second));
            ++checks_;
        }
    }

    std::uint64_t seed_;
    serving::BatchLatencyModel model_;
    serving::BatchLatencyModel brownout_;
    QueryTrace qt_;
    bool checkedCurve_ = false;
    double maxErr_ = 0;
    std::uint64_t checks_ = 0;

    std::uint64_t round_ = 0;
    std::vector<std::size_t> order_;
    double load_ = 1;
    Faults faultKind_ = Faults::None;
    Policy policy_ = Policy::NoShed;
    std::vector<serving::QosTier> tiers_;
    std::vector<serving::Request> arrivals_;
    resilience::FaultSchedule faults_;
    serving::FleetOptions options_;
};

// ---------------------------------------------------------------------
// chip-fanout
// ---------------------------------------------------------------------

class ChipFanout : public Workload
{
  public:
    explicit ChipFanout(std::uint64_t seed) : seed_(seed) {}

    static constexpr unsigned kCores[] = {512, 1024, 2048, 4096};
    static constexpr unsigned kTasks[] = {16, 32, 64};
    /** Shared memory bandwidth, bytes/s (bench_runtime_perf's chip). */
    static constexpr double kMemBw = 4e12;

    /**
     * One task queue per (cores, tasks) shape. Each core draws a phase
     * into a five-step compute pattern and a traffic class. Cores that
     * share a draw finish together, so the event count grows with the
     * distinct draws, not with cores x tasks: fully random task times
     * would make every task end its own rate re-solve over the whole
     * active set.
     */
    void
    setup() override
    {
        shapes_.clear();
        for (unsigned tasks : kTasks)
            for (unsigned cores : kCores) {
                Shape s;
                Rng rng(mixSeed(seed_, 6, shapes_.size()));
                s.work.assign(cores, {});
                for (auto &queue : s.work) {
                    const std::uint64_t phase = rng.below(5);
                    const std::uint64_t traffic = rng.below(11);
                    queue.resize(tasks);
                    double compute = 0;
                    for (unsigned k = 0; k < tasks; ++k) {
                        queue[k].computeSeconds =
                            1e-4 * double(1 + (phase + 3 * k) % 5);
                        queue[k].memBytes = Bytes(traffic + k + 1) * kMiB;
                        compute += queue[k].computeSeconds;
                        s.bytes += queue[k].memBytes;
                    }
                    s.maxCompute = std::max(s.maxCompute, compute);
                }
                shapes_.push_back(std::move(s));
            }
    }

    /** Every shape once fault-free and once under a fault plan. */
    std::size_t roundSize() const override { return 2 * shapes_.size(); }

    void
    beginRound(std::uint64_t round) override
    {
        round_ = round;
        order_.resize(roundSize());
        for (std::size_t v = 0; v < order_.size(); ++v)
            order_[v] = v;
        Rng rng(mixSeed(seed_, 7, round));
        rng.shuffle(order_);
    }

    void
    prepare(std::size_t i) override
    {
        const std::size_t v = order_[i];
        shape_ = &shapes_[v % shapes_.size()];
        faulty_ = v >= shapes_.size();
        plan_ = {};
        if (!faulty_)
            return;
        const unsigned cores = unsigned(shape_->work.size());
        resilience::FaultSpec spec;
        spec.seed = mixSeed(seed_, 8 + round_, i);
        spec.cores = cores;
        // The run is bandwidth-bound: its length is about the traffic
        // over the shared bandwidth. A few percent of the cores fail.
        spec.horizonSec = double(shape_->bytes) / kMemBw;
        spec.coreTransientPerSec = 0.01 / spec.horizonSec;
        spec.corePermanentPerSec = 0.003 / spec.horizonSec;
        spec.coreRepairSec = 5e-4;
        spec.stragglerFraction = 0.01;
        spec.stragglerSlowdown = 1.5;
        plan_ = resilience::ChipFaultPlan::fromSchedule(
            resilience::FaultSchedule::generate(spec), cores);
    }

    OpResult
    run(std::size_t) override
    {
        Span span("soc.runChipSim");
        const auto &work = shape_->work;
        const soc::ChipSimResult r =
            soc::runChipSim(work, kMemBw, plan_, soc::ChipSimOptions{});
        span.addWork(work.size() * work.front().size());

        OpResult res;
        Digest d;
        d.f64(r.makespan);
        d.f64(r.avgMemUtilization);
        for (double f : r.coreFinish)
            d.f64(f);
        d.u64(r.coreFailures);
        d.u64(r.reDispatchedTasks);
        d.u64(r.completed);
        res.digest = d.value();
        if (!faulty_) {
            if (!r.completed)
                res.violation = "fault-free chip sim did not complete";
            else if (r.makespan < shape_->maxCompute * (1 - 1e-9))
                res.violation = "makespan below the per-core compute sum";
        }
        return res;
    }

  private:
    struct Shape
    {
        std::vector<std::vector<soc::CoreTask>> work;
        Bytes bytes = 0;
        double maxCompute = 0; ///< largest per-core compute sum
    };

    std::uint64_t seed_;
    std::vector<Shape> shapes_;
    std::uint64_t round_ = 0;
    std::vector<std::size_t> order_;
    const Shape *shape_ = nullptr;
    bool faulty_ = false;
    resilience::ChipFaultPlan plan_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "dse-exact", "graph-sweep", "llm-fleet", "chip-fanout"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "dse-exact")
        return std::make_unique<DseExact>(seed);
    if (name == "graph-sweep")
        return std::make_unique<GraphSweep>(seed);
    if (name == "llm-fleet")
        return std::make_unique<LlmFleet>(seed);
    if (name == "chip-fanout")
        return std::make_unique<ChipFanout>(seed);
    return nullptr;
}

} // namespace perf
