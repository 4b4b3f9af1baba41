/**
 * @file
 * SIMT GPU model implementation.
 */

#include "baseline/simt.hh"

#include <algorithm>
#include <cmath>

namespace ascend {
namespace baseline {

GpuConfig
v100Like()
{
    return GpuConfig{};
}

double
GpuModel::layerSeconds(const model::Layer &layer) const
{
    const Bytes bytes = layer.inputBytes() + layer.weightBytes() +
                        layer.outputBytes();
    const double mem_sec = double(bytes) / config_.memBandwidth;

    double compute_sec;
    if (layer.isCubeLayer()) {
        std::uint64_t m, k, n;
        layer.lowerToGemm(m, k, n);
        // Wave quantization: a GEMM smaller than one SM wave cannot
        // use the whole machine. Split-K (standard in cuBLAS for
        // skinny dW-style GEMMs) recovers parallelism from the
        // reduction dimension.
        const std::uint64_t tiles =
            ceilDiv(m, 64) * ceilDiv(n, 64) * ceilDiv(k, 256) *
            layer.matmulCount;
        const double occupancy = std::min(
            1.0, double(tiles) / double(config_.tilesPerWave));
        const double eff_flops =
            config_.tensorFlopsPerSec * config_.issueEfficiency * occupancy;
        compute_sec = double(layer.flops()) / eff_flops;
    } else {
        compute_sec = double(layer.flops()) / config_.cudaFlopsPerSec;
    }
    return config_.launchLatencySec + std::max(compute_sec, mem_sec);
}

GpuResult
GpuModel::runInference(const model::Network &net) const
{
    GpuResult r;
    for (const model::Layer &layer : net.layers) {
        r.seconds += layerSeconds(layer);
        r.flops += layer.flops();
    }
    return r;
}

GpuResult
GpuModel::runTraining(const model::Network &net) const
{
    GpuResult r;
    for (const model::TrainingStep &step : model::trainingSteps(net)) {
        r.seconds += layerSeconds(step.fwd);
        r.flops += step.fwd.flops();
        for (const model::Layer &b : step.bwd) {
            r.seconds += layerSeconds(b);
            r.flops += b.flops();
        }
    }
    return r;
}

} // namespace baseline
} // namespace ascend
