/**
 * @file
 * Cycle-level simulator of one Ascend core.
 *
 * Models the control structure of paper Fig. 1 / Fig. 3: the PSQ
 * dispatches instructions in program order at a bounded rate into
 * per-pipe in-order queues; the six pipes execute asynchronously and
 * synchronize only through counting-semaphore flags and full barriers.
 *
 * The simulator is deterministic and event-driven at instruction
 * granularity: instruction latencies and byte counts are precomputed
 * by the compiler from a CoreConfig, so the kernel here is a pure
 * dependency scheduler. A blocked WAIT_FLAG with no matching SET_FLAG
 * anywhere upstream is reported as a deadlock with full pipe state
 * (this catches compiler synchronization bugs in tests).
 *
 * A program's repeat blocks are dispatched one trip at a time. Once a
 * block's units (one dispatch period of trips, or two for a block
 * whose trips alternate) settle into a steady state, with every pipe
 * clock and queued token time moving by a fixed amount per unit and
 * every max() picking the same winner, the following units are
 * advanced in closed form: all the remaining ones, or, when some
 * margin shrinks, those before the first winner flips, after which
 * stepping resumes. The result is exactly that of the flattened
 * program (DESIGN.md, "Repeat blocks and the steady-state
 * fast-forward").
 */

#ifndef ASCEND_CORE_CORE_SIM_HH
#define ASCEND_CORE_CORE_SIM_HH

#include <array>
#include <cstdint>

#include "arch/core_config.hh"
#include "isa/program.hh"

namespace ascend {
namespace core {

/** Per-pipe execution statistics. */
struct PipeStats
{
    Cycles busyCycles = 0;   ///< cycles spent executing instructions
    Cycles finishCycle = 0;  ///< completion time of the pipe's last instr
    Cycles waitCycles = 0;   ///< stall: blocked on WAIT_FLAG tokens
    std::uint64_t instrs = 0;
};

/** PipeStats' fields (common/field.hh); tests/result_diff.hh walks them. */
template <typename F, RecordOf<PipeStats>... P>
void
forEachField(F &&f, P &...p)
{
    f("busy_cycles", p.busyCycles...);
    f("finish_cycle", p.finishCycle...);
    f("wait_cycles", p.waitCycles...);
    f("instrs", p.instrs...);
}

/** Result of simulating one program on one core. */
struct SimResult
{
    Cycles totalCycles = 0;
    Flops totalFlops = 0;
    std::uint64_t instrsExecuted = 0;
    std::uint64_t barriers = 0; ///< stall: full PSQ pipe drains
    std::array<PipeStats, isa::kNumPipes> pipes{};
    std::array<Bytes, isa::kNumBuses> busBytes{};

    const PipeStats &
    pipe(isa::Pipe p) const
    {
        return pipes[static_cast<std::size_t>(p)];
    }

    Bytes
    bus(isa::Bus b) const
    {
        return busBytes[static_cast<std::size_t>(b)];
    }

    /** Total off-core traffic across the three external buses. */
    Bytes
    extBytes() const
    {
        return bus(isa::Bus::ExtA) + bus(isa::Bus::ExtB) +
               bus(isa::Bus::ExtOut);
    }

    /** Busy fraction of @p p over the whole program. */
    double
    utilization(isa::Pipe p) const
    {
        return totalCycles
            ? static_cast<double>(pipe(p).busyCycles) / totalCycles : 0;
    }

    /**
     * Busy fraction of @p p over the pipe's own active window (up to
     * its last retirement). Low occupancy with high utilization means
     * the pipe finished early; low occupancy with a late finish means
     * it sat in WAIT_FLAG stalls (see PipeStats::waitCycles).
     */
    double
    occupancy(isa::Pipe p) const
    {
        const PipeStats &s = pipe(p);
        return s.finishCycle
            ? static_cast<double>(s.busyCycles) / s.finishCycle : 0;
    }

    /** Wall-clock seconds at @p clock_ghz. */
    double
    seconds(double clock_ghz) const
    {
        return static_cast<double>(totalCycles) / (clock_ghz * 1e9);
    }

    /** Merge another result (sequential composition of programs). */
    void accumulate(const SimResult &other);
};

/** SimResult's fields (common/field.hh); tests/result_diff.hh walks them. */
template <typename F, RecordOf<SimResult>... R>
void
forEachField(F &&f, R &...r)
{
    f("total_cycles", r.totalCycles...);
    f("total_flops", r.totalFlops...);
    f("instrs_executed", r.instrsExecuted...);
    f("barriers", r.barriers...);
    f("pipes", r.pipes...);
    f("bus_bytes", r.busBytes...);
}

/** Work counts of one CoreSim::run. */
struct RunStats
{
    /** Instructions simulated one by one (barriers included). */
    std::uint64_t steppedInstrs = 0;
    /** Block trips advanced in closed form instead. */
    std::uint64_t extrapolatedTrips = 0;
};

/**
 * The core simulator. Stateless between run() calls (its scratch
 * buffers are per thread); safe to reuse, also from several threads.
 */
class CoreSim
{
  public:
    explicit CoreSim(const arch::CoreConfig &config) : config_(config)
    {
        config_.validate();
    }

    /**
     * Simulate @p program to completion.
     *
     * While an obs::Tracer is active, the run records one Core span
     * per executed instruction (track = pipe + 1) and steps every
     * instruction of the flattened program.
     *
     * @param program The instruction sequence.
     * @param stats Optional work counts; the run's are added to it.
     * @return timing and traffic statistics.
     * Panics (with pipe-state diagnostics) if the program deadlocks.
     */
    SimResult run(const isa::Program &program,
                  RunStats *stats = nullptr) const;

    const arch::CoreConfig &config() const { return config_; }

  private:
    arch::CoreConfig config_;
};

} // namespace core
} // namespace ascend

#endif // ASCEND_CORE_CORE_SIM_HH
