/**
 * @file
 * Per-layer run records and fusion-group aggregation.
 *
 * Fusion groups: the paper's per-layer ratio charts (Figs. 4-8) count
 * each cube operator together with the vector post-operators that the
 * real tool-chain fuses behind it (bias, normalization, activation,
 * residual add). We reproduce that granularity by grouping each cube
 * layer with all following non-cube layers up to the next cube layer.
 */

#ifndef ASCEND_RUNTIME_PROFILE_HH
#define ASCEND_RUNTIME_PROFILE_HH

#include <string>
#include <vector>

#include "core/core_sim.hh"
#include "model/layer.hh"

namespace ascend {
namespace runtime {

/** Per-layer simulation outcome. */
struct LayerRun
{
    model::Layer layer;
    core::SimResult result;
};

/** Aggregated statistics of one fusion group (one chart point). */
struct GroupProfile
{
    std::string name;          ///< name of the leading cube layer
    Cycles cubeBusy = 0;
    Cycles vectorBusy = 0;
    Cycles totalCycles = 0;
    Bytes l1ReadBytes = 0;
    Bytes l1WriteBytes = 0;
    Bytes extBytes = 0;
    Flops flops = 0;

    /** Cube/vector execution-time ratio (Figs. 4-8's y-axis). */
    double
    cubeVectorRatio() const
    {
        return vectorBusy ? double(cubeBusy) / double(vectorBusy) : 0.0;
    }

    /** Average L1 read bandwidth in bits per cycle (Fig. 9's y-axis). */
    double
    l1ReadBitsPerCycle() const
    {
        return totalCycles ? 8.0 * double(l1ReadBytes) / totalCycles : 0.0;
    }

    double
    l1WriteBitsPerCycle() const
    {
        return totalCycles ? 8.0 * double(l1WriteBytes) / totalCycles : 0.0;
    }
};

/** Aggregate inference runs into fusion groups. */
std::vector<GroupProfile> fusionGroups(const std::vector<LayerRun> &runs);

/**
 * Aggregate training runs into fusion groups: same grouping as
 * inference over the forward layers, with each group also absorbing
 * the backward work of its members.
 */
std::vector<GroupProfile>
fusionGroupsTraining(const std::vector<std::vector<LayerRun>> &runs);

/** Total cycles across runs. */
Cycles totalCycles(const std::vector<LayerRun> &runs);

} // namespace runtime
} // namespace ascend

#endif // ASCEND_RUNTIME_PROFILE_HH
