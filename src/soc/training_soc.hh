/**
 * @file
 * Ascend 910 training SoC model (Section 3.1).
 *
 * Composition: 32 Ascend-Max cores, an on-die AI LLC, and an HBM
 * subsystem. A training step runs data-parallel: every core executes
 * the same per-core program on its batch slice (timed by the
 * cycle-level core simulator), while the chip-level memory system is
 * replayed at tensor granularity through the set-associative LLC
 * model: forward writes activations that backward re-reads, weights
 * are shared, and whatever misses the LLC pays HBM bandwidth.
 *
 * Per-layer wall time is the max of the three rooflines:
 * core compute, LLC bandwidth, and HBM bandwidth. This is the model
 * behind Table 7's throughput rows and the Section 4.1 LLC-capacity
 * study (96 MB -> 720 MB).
 */

#ifndef ASCEND_SOC_TRAINING_SOC_HH
#define ASCEND_SOC_TRAINING_SOC_HH

#include "memory/llc.hh"
#include "model/network.hh"
#include "runtime/sim_session.hh"
#include "soc/chip_sim.hh"
#include "soc/soc_config.hh"

namespace ascend {
namespace soc {

/** Outcome of one training step (or inference batch) on the SoC. */
struct SocStepResult
{
    double seconds = 0;         ///< wall time of the step
    double computeSeconds = 0;  ///< sum of compute-bound layer time
    double llcBoundSeconds = 0; ///< sum of LLC-bandwidth-bound time
    double hbmBoundSeconds = 0; ///< sum of HBM-bandwidth-bound time
    Bytes llcTrafficBytes = 0;  ///< total bytes offered to the LLC
    Bytes hbmTrafficBytes = 0;  ///< bytes that missed to HBM
    Flops flops = 0;

    double
    llcHitRate() const
    {
        return llcTrafficBytes
            ? 1.0 - double(hbmTrafficBytes) / double(llcTrafficBytes)
            : 0.0;
    }

    double achievedFlops() const { return seconds ? flops / seconds : 0; }
};

/**
 * The SoC model.
 */
class TrainingSoc
{
  public:
    explicit TrainingSoc(TrainingSocConfig config = {});

    /**
     * One data-parallel training step. @p per_core_net must be built
     * at the per-core batch; the global batch is aiCores times that,
     * and the memory replay scales activation footprints accordingly.
     */
    SocStepResult
    trainStep(const model::Network &per_core_net,
              model::OptimizerKind opt =
                  model::OptimizerKind::Sgd) const;

    /** One data-parallel inference batch (forward only). */
    SocStepResult inferStep(const model::Network &per_core_net) const;

    /**
     * Contention-aware counterpart of inferStep: every core runs
     * @p per_core_net's layer queue through the fluid chip simulator
     * while all cores share the LLC bandwidth, so stragglers and
     * bandwidth interference are captured instead of assumed away by
     * the lockstep roofline.
     */
    ChipSimResult
    fluidInferStep(const model::Network &per_core_net) const;

    /** Per-core fluid task queue of @p net on this SoC's core. */
    std::vector<CoreTask> coreTasks(const model::Network &net) const;

    /** Peak fp16 throughput: 32 x 8192 FLOPs/cycle at 1 GHz. */
    double peakFlopsFp16() const;

    /** Peak int8 throughput (doubled reduction dimension). */
    double peakOpsInt8() const;

    const TrainingSocConfig &config() const { return config_; }
    const arch::CoreConfig &coreConfig() const { return coreConfig_; }

  private:
    SocStepResult runStep(const model::Network &net, bool training,
                          model::OptimizerKind opt) const;

    TrainingSocConfig config_;
    arch::CoreConfig coreConfig_;
    runtime::SimSession session_;
};

} // namespace soc
} // namespace ascend

#endif // ASCEND_SOC_TRAINING_SOC_HH
