/**
 * @file
 * SimSession implementation.
 */

#include "runtime/sim_session.hh"

#include <array>
#include <cmath>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "common/codec.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

namespace ascend {
namespace runtime {

namespace {

using surrogate::Outcome;

/**
 * Per-pipe and per-result counters, charged from every SimResult a
 * session produced or served from cache. Sim-time quantities, so for
 * a fixed workload they are deterministic at any ASCEND_THREADS.
 */
struct PipeCounters
{
    Counter &results = det("sim results");
    Counter &cycles = det("sim cycles");
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

    /** Charge @p n results whose sum (SimResult::accumulate) is @p sum. */
    void
    charge(const core::SimResult &sum, std::uint64_t n)
    {
        results.charge(n);
        cycles.charge(sum.totalCycles);
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            busy[p]->charge(sum.pipes[p].busyCycles);
            wait[p]->charge(sum.pipes[p].waitCycles);
            instrs[p]->charge(sum.pipes[p].instrs);
        }
    }
};

constexpr std::size_t kOutcomes = std::size_t(Outcome::SpotCheck) + 1;

/**
 * The counter of surrogate outcome @p oc ("surrogate <outcome>").
 * Racy: which tier answers a query can depend on which of two
 * concurrent queries filled the cache first.
 */
Counter &
outcomeCounter(Outcome oc)
{
    static const auto counters = [] {
        std::array<Counter *, kOutcomes> a{};
        for (auto i = std::size_t(Outcome::CacheHit); i < a.size(); ++i)
            a[i] = &counter(std::string("surrogate ") +
                                surrogate::toString(Outcome(i)),
                            CounterKind::Sum, Determinism::Racy);
        return a;
    }();
    return *counters[std::size_t(oc)];
}

/**
 * What a set of queries charges to the shared counters, summed
 * locally so one query or one whole batch charges them once.
 */
struct QueryTally
{
    core::SimResult sum;
    std::uint64_t results = 0;
    std::array<std::uint64_t, kOutcomes> outcomes{};

    void
    add(const core::SimResult &r, Outcome oc)
    {
        sum.accumulate(r);
        ++results;
        ++outcomes[std::size_t(oc)];
    }

    // Cache hits charge the pipe counters too: they describe the
    // workload simulated, not the cache behavior.
    void
    charge() const
    {
        static PipeCounters pipes;
        pipes.charge(sum, results);
        for (auto i = std::size_t(Outcome::CacheHit); i < kOutcomes; ++i)
            if (outcomes[i])
                outcomeCounter(Outcome(i)).charge(outcomes[i]);
    }
};

/** @p buf := @p prefix + fingerprint(@p layer); returns @p buf. */
const std::string &
buildKey(std::string &buf, const std::string &prefix,
         const model::Layer &layer)
{
    buf.assign(prefix);
    appendFingerprint(buf, layer);
    return buf;
}

/**
 * Exact key @p key (@p from + a layer fingerprint) moved under prefix
 * @p to, in the calling thread's buffer.
 */
const std::string &
rekey(const std::string &key, const std::string &from,
      const std::string &to)
{
    thread_local std::string buf;
    buf.assign(to).append(key, from.size());
    return buf;
}

void
traceQuery(const char *label, const core::SimResult &r)
{
    if (obs::Tracer *tr = obs::Tracer::current())
        tr->span(obs::Domain::Surrogate, 1, label, 0, r.totalCycles);
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
    static const std::shared_ptr<SimCache> cache =
        std::make_shared<SimCache>();
    return cache;
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
    // Its own buffer: the query tier still holds its key in another
    // while the surrogate calls back into this tier.
    thread_local std::string buf;
    const std::string &key = buildKey(buf, sessionKey_, layer);
    core::SimResult result;
    if (cache_->lookup(key, result))
        return result;
    return simulate(layer, key);
}

core::SimResult
SimSession::simulate(const model::Layer &layer,
                     const std::string &key) const
{
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
    core::SimResult result = sim_.run(prog, &stats);
    stepped.charge(stats.steppedInstrs);
    skipped.charge(stats.extrapolatedTrips);
    // Straggler derate: only off the bit-for-bit fault-free path when
    // explicitly enabled with a real slowdown.
    if (resilience_.enabled && resilience_.stragglerSlowdown > 1.0)
        result = derate(result, resilience_.stragglerSlowdown);
    cache_->insert(key, result);
    return result;
}

bool
SimSession::probe(const std::string &key, core::SimResult &out) const
{
    if (!surrogate_.options().enabled)
        return cache_->lookup(key, out);
    // The span label must stay a pure function of the query, never of
    // cache state: predicted-class shapes (off-grid, in-hull, budget-
    // and spot-check-passing) only ever cache under surrogateKey_,
    // everything else only under sessionKey_, so which tier hits is
    // itself deterministic.
    if (cache_->lookup(key, out)) {
        traceQuery("exact", out);
        return true;
    }
    if (cache_->lookup(rekey(key, sessionKey_, surrogateKey_), out)) {
        traceQuery("predicted", out);
        return true;
    }
    return false;
}

core::SimResult
SimSession::miss(const model::Layer &layer, const std::string &key,
                 Outcome &outcome) const
{
    if (!surrogate_.options().enabled) {
        outcome = Outcome::Disabled;
        return simulate(layer, key);
    }
    core::SimResult result;
    double spotErr = 0;
    outcome = surrogate_.run(
        layer,
        [this](const model::Layer &l) { return runLayerExact(l); },
        result, &spotErr);
    // Exact outcomes were already memoized under the exact key by
    // runLayerExact; only predictions live in the surrogate namespace.
    if (outcome == Outcome::Predicted)
        cache_->insert(rekey(key, sessionKey_, surrogateKey_), result);
    traceQuery(outcome == Outcome::Predicted ? "predicted" : "exact",
               result);
    if (outcome == Outcome::SpotCheck) {
        static Counter &maxErr =
            counter("surrogate max rel err", CounterKind::Max,
                    Determinism::Racy, CounterUnit::Fraction);
        maxErr.charge(doubleBits(spotErr));
    }
    return result;
}

core::SimResult
SimSession::runLayer(const model::Layer &layer) const
{
    return runLayer(layer, nullptr);
}

core::SimResult
SimSession::runLayer(const model::Layer &layer,
                     Outcome *outcome_out) const
{
    thread_local std::string buf;
    const std::string &key = buildKey(buf, sessionKey_, layer);
    core::SimResult result;
    Outcome oc = surrogate_.options().enabled ? Outcome::CacheHit
                                              : Outcome::Disabled;
    if (!probe(key, result))
        result = miss(layer, key, oc);
    QueryTally tally;
    tally.add(result, oc);
    tally.charge();
    if (outcome_out)
        *outcome_out = oc;
    return result;
}

void
SimSession::runBatch(std::span<LayerRun> runs) const
{
    std::vector<Outcome> outcomes(runs.size(),
                                  surrogate_.options().enabled
                                      ? Outcome::CacheHit
                                      : Outcome::Disabled);
    // 1. Probe in order on this thread. A key that already missed in
    //    this batch marks a repeat, which is not probed. The set is
    //    node-based, so the workers can read its keys in place.
    thread_local std::string buf;
    std::unordered_set<std::string> missed;
    std::vector<std::pair<std::size_t, const std::string *>> misses;
    std::vector<std::size_t> repeats;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string &key = buildKey(buf, sessionKey_, runs[i].layer);
        if (!missed.empty() && missed.count(key))
            repeats.push_back(i);
        else if (!probe(key, runs[i].result))
            misses.emplace_back(i, &*missed.insert(key).first);
    }
    // 2. Only the distinct misses fan out, each taking the miss path
    //    once.
    parallelFor(misses.size(), [&](std::size_t j) {
        const auto [i, key] = misses[j];
        runs[i].result = miss(runs[i].layer, *key, outcomes[i]);
    });
    // 3. The repeats hit what step 2 memoized (one evicted since takes
    //    the miss path again).
    for (const std::size_t i : repeats) {
        const std::string &key = buildKey(buf, sessionKey_, runs[i].layer);
        if (!probe(key, runs[i].result))
            runs[i].result = miss(runs[i].layer, key, outcomes[i]);
    }
    // 4. One charge for the whole batch.
    QueryTally tally;
    for (std::size_t i = 0; i < runs.size(); ++i)
        tally.add(runs[i].result, outcomes[i]);
    tally.charge();
}

std::vector<LayerRun>
SimSession::runInference(const model::Network &net) const
{
    std::vector<LayerRun> runs(net.layers.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        runs[i].layer = net.layers[i];
    runBatch(runs);
    return runs;
}

std::vector<std::vector<LayerRun>>
SimSession::runTraining(const model::Network &net,
                        model::OptimizerKind opt) const
{
    // One batch over every step's forward and backward layers, in
    // order, then cut back into one run list per step.
    std::vector<model::TrainingStep> steps = model::trainingSteps(net, opt);
    std::vector<LayerRun> flat;
    for (model::TrainingStep &step : steps) {
        flat.push_back({std::move(step.fwd), {}});
        for (model::Layer &b : step.bwd)
            flat.push_back({std::move(b), {}});
    }
    runBatch(flat);
    std::vector<std::vector<LayerRun>> runs(steps.size());
    auto next = std::make_move_iterator(flat.begin());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const auto end = next + std::ptrdiff_t(1 + steps[i].bwd.size());
        runs[i].assign(next, end);
        next = end;
    }
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
