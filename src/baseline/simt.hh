/**
 * @file
 * SIMT GPU analytical model (NVidia V100-class comparator).
 *
 * Captures the two first-order effects the paper attributes to the
 * SIMT + small-tensor-core design (Sections 6.1, 7.1):
 *
 *  - Tensor cores are 4x4x4 fractals embedded in the SIMT register
 *    file, so operand reuse per fetch is 4 (vs 16 for the Ascend
 *    cube); the achievable fraction of peak on real GEMMs is bounded
 *    by an issue-efficiency factor.
 *  - Non-GEMM layers run on CUDA cores at the FP32 rate and every
 *    layer pays a kernel-launch latency.
 *
 * Per layer: time = launch + max(flops / effective_flops,
 * bytes / mem_bandwidth). Effective GEMM FLOPs further degrade when
 * the GEMM is too small to fill all SMs (wave quantization).
 */

#ifndef ASCEND_BASELINE_SIMT_HH
#define ASCEND_BASELINE_SIMT_HH

#include "common/types.hh"
#include "model/network.hh"

namespace ascend {
namespace baseline {

/** GPU description. */
struct GpuConfig
{
    std::string name = "v100-like";
    unsigned sms = 80;
    double clockGhz = 1.53;
    double tensorFlopsPerSec = 125e12; ///< fp16 tensor peak
    double cudaFlopsPerSec = 15.7e12;  ///< fp32 SIMT peak
    double memBandwidth = 9e11;        ///< HBM2, 900 GB/s
    double issueEfficiency = 0.40;     ///< achievable/peak on large GEMM
    double launchLatencySec = 5e-6;    ///< per-kernel overhead
    /** Work (fractal tiles) one SM wave consumes. */
    std::uint64_t tilesPerWave = 80ull * 8;
};

/** Per-network outcome. */
struct GpuResult
{
    double seconds = 0;
    Flops flops = 0;

    double achievedFlops() const { return seconds ? flops / seconds : 0; }
};

/**
 * The analytical model.
 */
class GpuModel
{
  public:
    explicit GpuModel(GpuConfig config) : config_(std::move(config)) {}

    /** Seconds for one layer. */
    double layerSeconds(const model::Layer &layer) const;

    GpuResult runInference(const model::Network &net) const;
    GpuResult runTraining(const model::Network &net) const;

    const GpuConfig &config() const { return config_; }

  private:
    GpuConfig config_;
};

/** NVidia V100 SXM2 configuration. */
GpuConfig v100Like();

} // namespace baseline
} // namespace ascend

#endif // ASCEND_BASELINE_SIMT_HH
