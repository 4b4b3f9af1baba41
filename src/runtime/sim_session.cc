/**
 * @file
 * SimSession implementation.
 */

#include "runtime/sim_session.hh"

#include <array>
#include <cmath>
#include <cstdlib>
#include <mutex>

#include "common/codec.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

namespace ascend {
namespace runtime {

namespace {

/**
 * ASCEND_CACHE_DIR's cache file, or empty when persistence is off.
 */
std::string
persistentCachePath()
{
    const char *dir = std::getenv("ASCEND_CACHE_DIR");
    if (!dir || !*dir)
        return {};
    return SimCache::filePath(dir);
}

/**
 * Per-pipe and per-result counters, charged from every SimResult a
 * session produced or served from cache. Sim-time quantities, so for
 * a fixed workload they are deterministic at any ASCEND_THREADS.
 */
struct PipeCounters
{
    Counter &results = det("sim results");
    Counter &cycles = det("sim cycles");
    Counter &barriers = det("sim barriers");
    std::array<Counter *, isa::kNumPipes> busy{}, wait{}, instrs{};

    PipeCounters()
    {
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            const std::string pipe =
                std::string("pipe ") +
                isa::toString(static_cast<isa::Pipe>(p));
            busy[p] = &det(pipe + " busy");
            wait[p] = &det(pipe + " wait");
            instrs[p] = &det(pipe + " instrs");
        }
    }

    static Counter &
    det(const std::string &name)
    {
        return counter(name, CounterKind::Sum,
                       Determinism::Deterministic);
    }

    void
    charge(const core::SimResult &r)
    {
        results.charge(1);
        cycles.charge(r.totalCycles);
        barriers.charge(r.barriers);
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            busy[p]->charge(r.pipes[p].busyCycles);
            wait[p]->charge(r.pipes[p].waitCycles);
            instrs[p]->charge(r.pipes[p].instrs);
        }
    }
};

/**
 * The counter of surrogate outcome @p oc ("surrogate <outcome>").
 * Racy: which tier answers a query can depend on which of two
 * concurrent queries filled the cache first.
 */
Counter &
outcomeCounter(surrogate::Outcome oc)
{
    using surrogate::Outcome;
    static const auto counters = [] {
        std::array<Counter *, std::size_t(Outcome::SpotCheck) + 1> a{};
        for (auto i = std::size_t(Outcome::CacheHit); i < a.size(); ++i)
            a[i] = &counter(std::string("surrogate ") +
                                surrogate::toString(Outcome(i)),
                            CounterKind::Sum, Determinism::Racy);
        return a;
    }();
    return *counters[std::size_t(oc)];
}

} // anonymous namespace

core::SimResult
derate(core::SimResult r, double slowdown)
{
    auto stretch = [slowdown](Cycles c) {
        return Cycles(std::ceil(double(c) * slowdown));
    };
    r.totalCycles = stretch(r.totalCycles);
    for (core::PipeStats &p : r.pipes) {
        p.busyCycles = stretch(p.busyCycles);
        p.finishCycle = stretch(p.finishCycle);
        // ceil(busy * s) + floor(wait * s) <= ceil((busy + wait) * s).
        p.waitCycles = Cycles(std::floor(double(p.waitCycles) * slowdown));
    }
    return r;
}

const std::shared_ptr<SimCache> &
SimSession::processCache()
{
    static const std::shared_ptr<SimCache> cache = [] {
        auto c = std::make_shared<SimCache>();
        const std::string path = persistentCachePath();
        if (!path.empty())
            c->loadFile(path); // all or nothing; a refusal is a cold start
        return c;
    }();
    // The save hook registers *after* the cache static above:
    // std::atexit handlers and static destructors unwind through one
    // LIFO list, so the save provably runs while the cache is still
    // alive. (Registering inside the cache's own initializer would
    // order the save after the destruction.)
    static const bool saver = [] {
        if (!persistentCachePath().empty())
            std::atexit(saveProcessCache);
        return true;
    }();
    (void)saver;
    return cache;
}

void
SimSession::saveProcessCache()
{
    static std::once_flag saved;
    std::call_once(saved, [] {
        const std::string path = persistentCachePath();
        if (!path.empty())
            processCache()->saveFile(path);
    });
}

SimSession::SimSession(const arch::CoreConfig &config,
                       compiler::CompileOptions options,
                       std::shared_ptr<SimCache> cache,
                       resilience::ResilienceOptions res,
                       surrogate::SurrogateOptions sur)
    : options_(options),
      layerCompiler_(config, options),
      sim_(config),
      cache_(cache ? std::move(cache) : processCache()),
      resilience_(res),
      surrogate_(sur),
      sessionKey_(fingerprint(config) + fingerprint(options) +
                  fingerprint(res)),
      surrogateKey_(sessionKey_ + surrogate::fingerprint(sur))
{
}

core::SimResult
SimSession::runLayerExact(const model::Layer &layer) const
{
    const std::string key = sessionKey_ + fingerprint(layer);
    core::SimResult result;
    if (cache_->lookup(key, result))
        return result;
    static PerfScope &perf = perfScope("layer-sim");
    const PerfTimer timer(perf);
    // One program per thread: its storage outlives the layer, so a
    // worker compiling layer after layer stops reallocating.
    thread_local isa::Program prog;
    layerCompiler_.compileInto(layer, prog);
    // Racy, like the cache counters: concurrent misses on one key
    // both simulate.
    static Counter &stepped = counter("core stepped instrs",
                                      CounterKind::Sum, Determinism::Racy);
    static Counter &skipped = counter("core extrapolated trips",
                                      CounterKind::Sum, Determinism::Racy);
    core::RunStats stats;
    result = sim_.run(prog, &stats);
    stepped.charge(stats.steppedInstrs);
    skipped.charge(stats.extrapolatedTrips);
    // Straggler derate: only off the bit-for-bit fault-free path when
    // explicitly enabled with a real slowdown.
    if (resilience_.enabled && resilience_.stragglerSlowdown > 1.0)
        result = derate(result, resilience_.stragglerSlowdown);
    cache_->insert(key, result);
    return result;
}

core::SimResult
SimSession::runLayer(const model::Layer &layer) const
{
    return runLayer(layer, nullptr);
}

core::SimResult
SimSession::runLayer(const model::Layer &layer,
                     surrogate::Outcome *outcome_out) const
{
    using surrogate::Outcome;
    // Cache hits charge the pipe counters too: they describe the
    // workload simulated, not the cache behavior.
    auto finish = [&](const core::SimResult &r, Outcome oc) {
        static PipeCounters pipes;
        pipes.charge(r);
        if (oc != Outcome::Disabled)
            outcomeCounter(oc).charge(1);
        if (outcome_out)
            *outcome_out = oc;
        return r;
    };

    if (!surrogate_.options().enabled)
        return finish(runLayerExact(layer), Outcome::Disabled);

    // The span label must stay a pure function of the query, never of
    // cache state: predicted-class shapes (off-grid, in-hull, budget-
    // and spot-check-passing) only ever cache under surrogateKey_,
    // everything else only under sessionKey_, so which tier hits is
    // itself deterministic.
    auto trace = [](const char *label, const core::SimResult &r) {
        if (obs::Tracer *tr = obs::Tracer::current())
            tr->span(obs::Domain::Surrogate, 1, label, 0,
                     r.totalCycles);
    };

    const std::string layerPrint = fingerprint(layer);
    core::SimResult result;
    if (cache_->lookup(sessionKey_ + layerPrint, result)) {
        trace("exact", result);
        return finish(result, Outcome::CacheHit);
    }
    if (cache_->lookup(surrogateKey_ + layerPrint, result)) {
        trace("predicted", result);
        return finish(result, Outcome::CacheHit);
    }

    double spotErr = 0;
    const Outcome oc = surrogate_.run(
        layer,
        [this](const model::Layer &l) { return runLayerExact(l); },
        result, &spotErr);
    // Exact outcomes were already memoized under the exact key by
    // runLayerExact; only predictions live in the surrogate namespace.
    if (oc == Outcome::Predicted)
        cache_->insert(surrogateKey_ + layerPrint, result);
    trace(oc == Outcome::Predicted ? "predicted" : "exact", result);
    if (oc == Outcome::SpotCheck) {
        static Counter &maxErr =
            counter("surrogate max rel err", CounterKind::Max,
                    Determinism::Racy, CounterUnit::Fraction);
        maxErr.charge(doubleBits(spotErr));
    }
    return finish(result, oc);
}

std::vector<LayerRun>
SimSession::runInference(const model::Network &net) const
{
    std::vector<LayerRun> runs(net.layers.size());
    parallelFor(net.layers.size(), [&](std::size_t i) {
        runs[i].layer = net.layers[i];
        runs[i].result = runLayer(net.layers[i]);
    });
    return runs;
}

std::vector<std::vector<LayerRun>>
SimSession::runTraining(const model::Network &net,
                        model::OptimizerKind opt) const
{
    const auto steps = model::trainingSteps(net, opt);
    std::vector<std::vector<LayerRun>> runs(steps.size());
    parallelFor(steps.size(), [&](std::size_t i) {
        const model::TrainingStep &step = steps[i];
        std::vector<LayerRun> &out = runs[i];
        out.resize(1 + step.bwd.size());
        out[0].layer = step.fwd;
        out[0].result = runLayer(step.fwd);
        for (std::size_t j = 0; j < step.bwd.size(); ++j) {
            out[1 + j].layer = step.bwd[j];
            out[1 + j].result = runLayer(step.bwd[j]);
        }
    });
    return runs;
}

core::SimResult
SimSession::inferenceResult(const model::Network &net) const
{
    core::SimResult total;
    for (const LayerRun &run : runInference(net))
        total.accumulate(run.result);
    return total;
}

} // namespace runtime
} // namespace ascend
