/**
 * @file
 * Training SoC implementation: data-parallel core timing + chip-level
 * LLC/HBM memory replay.
 */

#include "soc/training_soc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ascend {
namespace soc {

namespace {

/** Sequential address allocator (line-aligned). */
class Allocator
{
  public:
    explicit Allocator(Bytes line) : line_(line) {}

    std::uint64_t
    alloc(Bytes bytes)
    {
        const std::uint64_t base = next_;
        next_ += roundUp(std::max<Bytes>(bytes, 1), line_);
        return base;
    }

  private:
    Bytes line_;
    std::uint64_t next_ = 0;
};

/** Stream a tensor through the LLC; returns bytes that missed. */
Bytes
streamTensor(memory::Llc &llc, std::uint64_t base, Bytes bytes)
{
    const Bytes line = llc.config().lineBytes;
    Bytes miss_bytes = 0;
    const std::uint64_t lines = ceilDiv(std::max<Bytes>(bytes, 1), line);
    for (std::uint64_t i = 0; i < lines; ++i) {
        if (!llc.access(base + i * line))
            miss_bytes += line;
    }
    return miss_bytes;
}

} // anonymous namespace

TrainingSoc::TrainingSoc(TrainingSocConfig config)
    : config_(std::move(config)),
      coreConfig_(arch::makeCoreConfig(config_.coreVersion)),
      session_(coreConfig_)
{
    simAssert(config_.aiCores > 0, "SoC needs at least one AI core");
}

double
TrainingSoc::peakFlopsFp16() const
{
    return double(config_.aiCores) *
           double(coreConfig_.cube.flopsPerCycle()) *
           coreConfig_.clockGhz * 1e9;
}

double
TrainingSoc::peakOpsInt8() const
{
    return double(config_.aiCores) *
           double(coreConfig_.cubeShapeFor(DataType::Int8).flopsPerCycle()) *
           coreConfig_.clockGhz * 1e9;
}

SocStepResult
TrainingSoc::runStep(const model::Network &net, bool training,
                     model::OptimizerKind opt) const
{
    const double clk_hz = coreConfig_.clockGhz * 1e9;
    const unsigned cores = config_.aiCores;
    const std::size_t n = net.layers.size();

    // 1. Per-core compute time and external traffic from the
    // cycle-level simulator, plus the task scheduler's per-task
    // dispatch overhead (Section 5.2).
    const double task_ovh = config_.taskOverheadSec;
    struct Phase
    {
        double seconds = 0;
        Bytes extA = 0, extB = 0, extOut = 0;
    };
    std::vector<Phase> fwd(n), bwd(n);
    auto fill = [&](Phase &ph, const core::SimResult &r) {
        ph.seconds += double(r.totalCycles) / clk_hz + task_ovh;
        ph.extA += r.bus(isa::Bus::ExtA);
        ph.extB += r.bus(isa::Bus::ExtB);
        ph.extOut += r.bus(isa::Bus::ExtOut);
    };
    if (training) {
        const auto steps = session_.runTraining(net, opt);
        for (std::size_t i = 0; i < n; ++i) {
            fill(fwd[i], steps[i][0].result);
            for (std::size_t j = 1; j < steps[i].size(); ++j)
                fill(bwd[i], steps[i][j].result);
        }
    } else {
        const auto runs = session_.runInference(net);
        for (std::size_t i = 0; i < n; ++i)
            fill(fwd[i], runs[i].result);
    }

    // 2. Chip-level memory replay. The per-core compiler re-streams
    // operand panels that do not fit L1 (weights once per m-tile
    // pass, activations once per n-tile pass); the replay reproduces
    // those multiplicities over the global tensors so the LLC model
    // sees the true reuse opportunity. Activation tensors are the
    // per-core ones scaled by the core count; weights are shared.
    // The AI LLC is software-visible: when the whole weight set fits
    // comfortably, the runtime pins it and weight traffic is served
    // at LLC bandwidth without contending for the LRU-managed rest.
    Bytes weight_total = 0;
    for (const model::Layer &l : net.layers)
        weight_total += l.weightBytes();
    const bool pin_weights =
        weight_total <= config_.llcCapacity * 7 / 10;

    memory::LlcConfig llc_cfg;
    llc_cfg.capacity = config_.llcCapacity -
                       (pin_weights ? roundUp(weight_total, kMiB) : 0);
    llc_cfg.capacity = std::max<Bytes>(llc_cfg.capacity, 16 * kMiB);
    llc_cfg.ways = 16;
    llc_cfg.lineBytes = 4 * kKiB;
    memory::Llc llc(llc_cfg);
    Allocator alloc(llc_cfg.lineBytes);

    struct Tensors
    {
        std::uint64_t weights, act, dact, dweights, optState;
        Bytes weightBytes, actBytes, optBytes;
    };
    std::vector<Tensors> tensors(n);
    const Bytes input_bytes =
        n ? net.layers[0].inputBytes() * cores : 0;
    const std::uint64_t input_addr = alloc.alloc(input_bytes);
    for (std::size_t i = 0; i < n; ++i) {
        Tensors &t = tensors[i];
        t.weightBytes = net.layers[i].weightBytes();
        t.actBytes = net.layers[i].outputBytes() * cores;
        t.weights = alloc.alloc(t.weightBytes);
        t.act = alloc.alloc(t.actBytes);
        if (training) {
            t.dact = alloc.alloc(t.actBytes);
            t.dweights = alloc.alloc(t.weightBytes);
            // Optimizer state lives in fp32 (2x the fp16 weights).
            t.optBytes = Bytes(2) * t.weightBytes *
                         model::optimizerStateTensors(opt);
            t.optState = alloc.alloc(t.optBytes);
        }
    }

    SocStepResult result;
    auto add_layer = [&](double compute_sec, Bytes llc_bytes,
                         Bytes miss_bytes) {
        const double llc_sec = double(llc_bytes) / config_.llcBandwidth;
        const double hbm_sec =
            double(miss_bytes) / config_.hbm.bandwidthBytesPerSec;
        const double t = std::max({compute_sec, llc_sec, hbm_sec});
        result.seconds += t;
        if (t == compute_sec)
            result.computeSeconds += t;
        else if (t == hbm_sec)
            result.hbmBoundSeconds += t;
        else
            result.llcBoundSeconds += t;
        result.llcTrafficBytes += llc_bytes;
        result.hbmTrafficBytes += miss_bytes;
    };

    /**
     * Replay one phase of one layer: interleaved multi-pass streams
     * over the inbound tensors (pass counts from the measured core
     * traffic) followed by single-pass outbound writes.
     */
    struct Stream
    {
        std::uint64_t addr;
        Bytes bytes;
        std::uint64_t passes;
        bool pinned = false; ///< served from the pinned LLC region
    };
    auto replay_phase = [&](const Phase &ph,
                            std::vector<Stream> inbound,
                            const std::vector<Stream> &outbound,
                            bool record) {
        std::uint64_t max_passes = 1;
        for (Stream &st : inbound) {
            st.passes = st.bytes
                ? std::max<std::uint64_t>(
                      1, (st.passes + st.bytes / 2) / st.bytes)
                : 0;
            max_passes = std::max(max_passes, st.passes);
        }
        Bytes miss = 0;
        Bytes bytes = 0;
        for (std::uint64_t p = 0; p < max_passes; ++p) {
            for (const Stream &st : inbound) {
                if (p < st.passes && st.bytes) {
                    if (!st.pinned)
                        miss += streamTensor(llc, st.addr, st.bytes);
                    bytes += st.bytes;
                }
            }
        }
        for (const Stream &st : outbound) {
            if (st.bytes) {
                miss += streamTensor(llc, st.addr, st.bytes);
                bytes += st.bytes;
            }
        }
        if (record)
            add_layer(ph.seconds, bytes, miss);
    };

    // Two iterations: the first warms the LLC (weights and persistent
    // tensors reach steady-state residency), the second is measured.
    for (int iter = 0; iter < 2; ++iter) {
        const bool record = iter == 1;
        // Forward pass.
        for (std::size_t i = 0; i < n; ++i) {
            const Tensors &t = tensors[i];
            const std::uint64_t in_addr =
                i ? tensors[i - 1].act : input_addr;
            const Bytes in_bytes =
                i ? tensors[i - 1].actBytes : input_bytes;
            replay_phase(fwd[i],
                         {{in_addr, in_bytes, fwd[i].extA * cores, false},
                          {t.weights, t.weightBytes, fwd[i].extB * cores,
                           pin_weights}},
                         {{t.act, t.actBytes, 1, false}}, record);
            if (record)
                result.flops += net.layers[i].flops() * cores;
        }
        if (!training)
            continue;
        // Backward pass (reverse order): re-read stored activations
        // and weights, read the incoming gradient, write dX and dW.
        for (std::size_t ri = 0; ri < n; ++ri) {
            const std::size_t i = n - 1 - ri;
            const Tensors &t = tensors[i];
            const std::uint64_t in_addr =
                i ? tensors[i - 1].act : input_addr;
            const Bytes in_bytes =
                i ? tensors[i - 1].actBytes : input_bytes;
            // Pool the backward inbound traffic across its three
            // source tensors proportionally to their sizes.
            const Bytes inbound_total =
                (bwd[i].extA + bwd[i].extB) * cores;
            const Bytes src_total =
                in_bytes + t.weightBytes + t.actBytes;
            auto share = [&](Bytes sz) {
                return src_total
                    ? Bytes(double(inbound_total) * sz / src_total) : 0;
            };
            std::vector<Stream> outbound = {
                {t.dweights, t.weightBytes, 1, false}};
            if (t.optBytes)
                // Optimizer state: read-modify-write each step.
                outbound.push_back({t.optState, t.optBytes, 1, false});
            if (i)
                outbound.push_back({tensors[i - 1].dact,
                                    tensors[i - 1].actBytes, 1, false});
            replay_phase(bwd[i],
                         {{in_addr, in_bytes, share(in_bytes), false},
                          {t.weights, t.weightBytes, share(t.weightBytes),
                           pin_weights},
                          {t.dact, t.actBytes, share(t.actBytes), false}},
                         outbound, record);
            if (record)
                result.flops += 2 * net.layers[i].flops() * cores;
        }
    }
    return result;
}

SocStepResult
TrainingSoc::trainStep(const model::Network &per_core_net,
                       model::OptimizerKind opt) const
{
    return runStep(per_core_net, true, opt);
}

SocStepResult
TrainingSoc::inferStep(const model::Network &per_core_net) const
{
    return runStep(per_core_net, false, model::OptimizerKind::Sgd);
}

std::vector<CoreTask>
TrainingSoc::coreTasks(const model::Network &net) const
{
    return soc::coreTasks(session_, net);
}

ChipSimResult
TrainingSoc::fluidInferStep(const model::Network &per_core_net) const
{
    const std::vector<std::vector<CoreTask>> per_core(
        config_.aiCores, coreTasks(per_core_net));
    return runChipSim(per_core, config_.llcBandwidth);
}

} // namespace soc
} // namespace ascend
