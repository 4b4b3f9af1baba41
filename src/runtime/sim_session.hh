/**
 * @file
 * SimSession: the single entry point for "run this layer/network on
 * this core".
 *
 * A SimSession owns the pieces of the compile -> simulate ->
 * aggregate loop — a CoreConfig, a LayerCompiler, a CoreSim — plus a
 * (shareable) SimCache, so:
 *
 *  - repeated (config, options, layer-shape) triples are memoized
 *    across layers, networks, benches within a process;
 *  - per-layer network profiling fans out over the runtime thread
 *    pool with index-ordered results (byte-identical output at any
 *    ASCEND_THREADS setting).
 *
 * Sessions default to one process-wide cache: sweeps that vary the
 * config still share entries for everything the sweep holds fixed.
 */

#ifndef ASCEND_RUNTIME_SIM_SESSION_HH
#define ASCEND_RUNTIME_SIM_SESSION_HH

#include <memory>

#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"
#include "model/network.hh"
#include "runtime/profile.hh"
#include "runtime/sim_cache.hh"
#include "surrogate/surrogate.hh"

namespace ascend {
namespace runtime {

/**
 * Stretch a simulated result by a straggler factor @p slowdown: wall-
 * clock quantities (total and per-pipe cycle counts) scale, while work
 * quantities (flops, instructions, bytes) do not. Total, busy and
 * finish cycles round up, WAIT stalls round down, so the pipe
 * accounting (busy <= finish <= total, busy + wait <= total) holds
 * for the stretched result too.
 */
core::SimResult derate(core::SimResult r, double slowdown);

/**
 * Compile-and-simulate service for one core configuration.
 */
class SimSession
{
  public:
    /**
     * @param config The core design point to simulate.
     * @param options Compilation knobs applied to every layer.
     * @param cache Memo shared with other sessions; nullptr selects
     *        the process-wide cache.
     * @param res Fault-injection knobs; the defaults (disabled,
     *        slowdown 1.0) reproduce fault-free results bit-for-bit
     *        and share their cache entries. Any other value is mixed
     *        into the session key so degraded runs cache separately.
     * @param sur Surrogate cost-model knobs (surrogate/surrogate.hh);
     *        default reads the ASCEND_SURROGATE* variables (fromEnv).
     *        When enabled, runLayer answers cache misses through
     *        error-bounded O(1) interpolation between exact anchor
     *        simulations; predicted results cache under keys mixed
     *        with the surrogate fingerprint so they can never alias
     *        exact entries.
     */
    explicit SimSession(const arch::CoreConfig &config,
                        compiler::CompileOptions options = {},
                        std::shared_ptr<SimCache> cache = nullptr,
                        resilience::ResilienceOptions res = {},
                        surrogate::SurrogateOptions sur =
                            surrogate::SurrogateOptions::fromEnv());

    /**
     * Compile and simulate one layer, memoized. Tiered: exact cache
     * hit -> predicted cache hit -> surrogate prediction -> exact
     * simulation (the surrogate tier exists only when enabled and
     * itself falls back to exact per its hull/budget contract).
     */
    core::SimResult runLayer(const model::Layer &layer) const;

    /** runLayer, also reporting how the query was answered. */
    core::SimResult runLayer(const model::Layer &layer,
                             surrogate::Outcome *outcome_out) const;

    /** Compile and simulate every layer of @p net (inference). */
    std::vector<LayerRun> runInference(const model::Network &net) const;

    /**
     * Compile and simulate forward and backward work (one training
     * step without the optimizer's host-side work). The returned runs
     * are indexed like trainingSteps(net): runs for step i contain
     * the forward layer followed by its backward layers.
     */
    std::vector<std::vector<LayerRun>>
    runTraining(const model::Network &net,
                model::OptimizerKind opt =
                    model::OptimizerKind::Sgd) const;

    /** End-to-end simulation of a network; sums per-layer results. */
    core::SimResult inferenceResult(const model::Network &net) const;

    const arch::CoreConfig &config() const { return sim_.config(); }
    const compiler::CompileOptions &options() const { return options_; }
    const resilience::ResilienceOptions &resilience() const
    {
        return resilience_;
    }
    const surrogate::SurrogateOptions &surrogateOptions() const
    {
        return surrogate_.options();
    }
    const compiler::LayerCompiler &layerCompiler() const
    {
        return layerCompiler_;
    }

    /**
     * fingerprint(config) + fingerprint(options) +
     * fingerprint(resilience), built once at construction: the prefix
     * of every exact-result key this session reads or writes.
     */
    const std::string &sessionKey() const { return sessionKey_; }

    /** The memo this session reads and writes. */
    SimCache &cache() const { return *cache_; }

    /** The process-wide cache all default-constructed sessions share. */
    static const std::shared_ptr<SimCache> &processCache();

  private:
    /**
     * The exact tier: memoized compile + cycle-level sim (plus the
     * straggler derate). The surrogate reaches its anchor shapes
     * through this, so anchors share the session's cache entries.
     * Does not charge pipe totals — callers charge once per query.
     */
    core::SimResult runLayerExact(const model::Layer &layer) const;

    compiler::CompileOptions options_;
    compiler::LayerCompiler layerCompiler_;
    core::CoreSim sim_;
    std::shared_ptr<SimCache> cache_;
    resilience::ResilienceOptions resilience_;
    surrogate::Surrogate surrogate_;
    /** fingerprint(config) + fingerprint(options) + fingerprint(res) */
    std::string sessionKey_;
    /** sessionKey_ + fingerprint(sur): the predicted-result namespace. */
    std::string surrogateKey_;
};

} // namespace runtime
} // namespace ascend

#endif // ASCEND_RUNTIME_SIM_SESSION_HH
