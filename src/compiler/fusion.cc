/**
 * @file
 * Operator fusion implementation.
 */

#include "compiler/fusion.hh"

#include "compiler/layer_compiler.hh"

namespace ascend {
namespace compiler {

namespace {

/**
 * A layer is fusable into @p producer only when it is pointwise
 * (BatchNorm, Elementwise, Activation) and operates on the producer's
 * output volume (same element count).
 */
bool
fusable(const model::Layer &producer, const model::Layer &candidate)
{
    using model::LayerKind;
    const LayerKind kind = candidate.kind;
    return (kind == LayerKind::BatchNorm ||
            kind == LayerKind::Elementwise ||
            kind == LayerKind::Activation) &&
           candidate.inputBytes() == producer.outputBytes();
}

} // anonymous namespace

model::Network
fuseNetwork(const model::Network &net, FusionReport *report)
{
    model::Network fused;
    fused.name = net.name;
    for (const model::Layer &layer : net.layers) {
        if (!fused.layers.empty() && fused.layers.back().isCubeLayer() &&
            fusable(fused.layers.back(), layer)) {
            fused.layers.back().fusedEvictPasses +=
                LayerCompiler::vectorPasses(layer);
            continue;
        }
        fused.add(layer);
    }
    if (report) {
        report->layersBefore = net.layers.size();
        report->layersAfter = fused.layers.size();
    }
    return fused;
}

} // namespace compiler
} // namespace ascend
