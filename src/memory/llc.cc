/**
 * @file
 * LLC model implementation.
 */

#include "memory/llc.hh"

#include "common/logging.hh"
#include "memory/dram.hh"
#include "obs/tracer.hh"

namespace ascend {
namespace memory {

DramConfig
hbm2Ascend910()
{
    return DramConfig{"hbm2", 1.2e12, 120e-9, {}};
}

DramConfig
lpddr4xMobile()
{
    return DramConfig{"lpddr4x", 34e9, 100e-9, {}};
}

DramConfig
ddrAutomotive()
{
    return DramConfig{"lpddr5-auto", 64e9, 110e-9, {}};
}

DramConfig
ddrIot()
{
    return DramConfig{"ddr-iot", 8e9, 90e-9, {}};
}

Llc::Llc(LlcConfig config) : config_(config)
{
    simAssert(config_.ways > 0, "llc needs at least one way");
    simAssert(config_.lineBytes > 0, "llc line size must be positive");
    sets_ = config_.capacity / (config_.ways * config_.lineBytes);
    simAssert(sets_ > 0, "llc capacity too small for geometry");
    lines_.assign(sets_ * config_.ways, Line{});
    partWays_.assign(std::max(1u, config_.partitions),
                     WayRange{0, config_.ways});
    stats_.assign(partWays_.size(), LlcPartStats{});
}

void
Llc::setPartitionRange(unsigned part, unsigned first, unsigned count)
{
    if (part >= partWays_.size())
        fatal("llc: partition %u out of range (%zu configured)", part,
              partWays_.size());
    if (first + count > config_.ways || count == 0)
        fatal("llc: bad way range [%u, %u) with %u ways", first,
              first + count, config_.ways);
    partWays_[part] = WayRange{first, count};
}

bool
Llc::access(std::uint64_t addr, unsigned part)
{
    if (part >= partWays_.size())
        fatal("llc: partition %u out of range", part);
    ++tick_;
    const std::uint64_t line_addr = addr / config_.lineBytes;
    const std::uint64_t set = line_addr % sets_;
    const std::uint64_t tag = line_addr / sets_;
    Line *base = &lines_[set * config_.ways];

    // Lookup searches all ways: MPAM restricts allocation, not hits.
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = tick_;
            ++stats_[part].hits;
            return true;
        }
    }

    // Miss: allocate the LRU way within the partition's range.
    const WayRange range = partWays_[part];
    unsigned victim = range.first;
    for (unsigned w = range.first; w < range.first + range.count; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    }
    base[victim] = Line{tag, tick_, true};
    ++stats_[part].misses;
    traceSample();
    return false;
}

void
Llc::traceSample() const
{
    // Sampled hit-rate counter on the access-tick timeline; the
    // stride keeps the trace compact and the disabled-path cost at
    // one relaxed load per miss.
    if ((tick_ & 0xfff) != 0)
        return;
    if (obs::Tracer *tracer = obs::Tracer::current()) {
        std::uint64_t hits = 0, accesses = 0;
        for (const LlcPartStats &s : stats_) {
            hits += s.hits;
            accesses += s.accesses();
        }
        tracer->counter(obs::Domain::Llc, "llc hit rate", tick_,
                        accesses ? double(hits) / double(accesses) : 0);
    }
}

const LlcPartStats &
Llc::partStats(unsigned part) const
{
    if (part >= stats_.size())
        fatal("llc: partition %u out of range", part);
    return stats_[part];
}

void
Llc::resetStats()
{
    for (LlcPartStats &s : stats_)
        s = LlcPartStats{};
}

} // namespace memory
} // namespace ascend
