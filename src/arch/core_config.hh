/**
 * @file
 * Core configuration: the architecture parameters of one Ascend core.
 *
 * The five presets correspond to the design points of paper Table 5
 * (Ascend-Max / Ascend / Ascend-Mini at 1 GHz with a 16x16x16 cube and
 * 256 B vector; Ascend-Lite at 0.75 GHz with a 4x16x16 cube and 128 B
 * vector; Ascend-Tiny at 0.75 GHz with a 4x32x4 int8 cube and 32 B
 * vector) plus the bus widths derived from the published bandwidths.
 */

#ifndef ASCEND_ARCH_CORE_CONFIG_HH
#define ASCEND_ARCH_CORE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ascend {
namespace arch {

/** Shape of the cube unit's native fractal (one m0 x k0 x n0 GEMM/cycle). */
struct CubeShape
{
    unsigned m0 = 16;
    unsigned k0 = 16;
    unsigned n0 = 16;

    /** MACs performed per cycle. */
    std::uint64_t macsPerCycle() const
    {
        return std::uint64_t(m0) * k0 * n0;
    }

    /** FLOPs (or int OPs) per cycle: one MAC = 2 ops. */
    std::uint64_t flopsPerCycle() const { return 2 * macsPerCycle(); }
};

/** Identifier for the published design points. */
enum class CoreVersion {
    Tiny,   ///< IoT / always-on sensing (int8 only)
    Lite,   ///< IP cameras and smartphones
    Mini,   ///< drones, robots, embedded AI
    Std,    ///< "Ascend": autonomous driving / cloud inference / training
    Max,    ///< high-performance training
};

const char *toString(CoreVersion v);

/**
 * Full parameter set of one core.
 *
 * Bus widths are in bytes per cycle; multiply by clockGhz for GB/s and
 * compare against Table 5.
 */
struct CoreConfig
{
    std::string name = "ascend-max";
    CoreVersion version = CoreVersion::Max;
    double clockGhz = 1.0;

    /** Cube fractal for fp16 sources (int8 doubles k0, int4 quadruples). */
    CubeShape cube{16, 16, 16};
    bool supportsFp16 = true;
    bool supportsInt8 = true;
    bool supportsInt4 = false;
    /**
     * fp32 sources in the cube unit (paper Section 7.2 future work,
     * for HPC corner applications); runs at half the fp16 rate.
     */
    bool supportsFp32Cube = false;

    /** Vector unit datapath width in bytes (elements/cycle = width/esize). */
    Bytes vectorWidthBytes = 256;

    /** Bus widths, bytes per cycle. */
    Bytes busABytesPerCycle = 4096;    ///< L1 -> L0A
    Bytes busBBytesPerCycle = 2048;    ///< L1 -> L0B
    Bytes busUbBytesPerCycle = 2048;   ///< unified buffer port
    Bytes busExtBytesPerCycle = 94;    ///< core <-> LLC (Table 5 last col)

    /** Buffer capacities. */
    Bytes l0aBytes = 64 * kKiB;
    Bytes l0bBytes = 64 * kKiB;
    Bytes l0cBytes = 256 * kKiB;
    Bytes l1Bytes = 1 * kMiB;
    Bytes ubBytes = 256 * kKiB;

    /** PSQ dispatch rate, instructions per cycle. */
    unsigned dispatchPerCycle = 1;

    /**
     * Effective cube fractal for a given source data type: int8 doubles
     * the reduction dimension k0 (paper: 16x16x16 fp16 -> 16x32x16
     * int8), int4 quadruples it.
     */
    CubeShape cubeShapeFor(DataType dt) const;

    /** Vector lanes for element size of @p dt. */
    std::uint64_t
    vectorLanes(DataType dt) const
    {
        return (vectorWidthBytes * 8) / bitsOf(dt);
    }

    /** Peak cube throughput for @p dt in ops/second. */
    double
    peakCubeOpsPerSecond(DataType dt) const
    {
        return cubeShapeFor(dt).flopsPerCycle() * clockGhz * 1e9;
    }

    /**
     * Reject out-of-domain fields (forEachField below: zero clock,
     * empty buffers, ...) and an L0A too small for a double-buffered
     * fractal. Throws ascend::Error with code ConfigValidation so
     * callers loading user-supplied configs can recover.
     */
    void validate() const;
};

/**
 * CoreConfig's fields, in SimCache-key order: calls f(key, c.member...)
 * once per field, passing that member of every config in @p c, under
 * its config-file key. This list is the only place the fields are
 * named: the cache key (which skips the cosmetic name), the config
 * file and validate() all walk it.
 */
template <typename F, RecordOf<CoreConfig>... C>
void
forEachField(F &&f, C &...c)
{
    f("name", c.name...);
    f("version", c.version...);
    f(positive("clock_ghz"), c.clockGhz...);
    f(positive("cube_m0"), c.cube.m0...);
    f(positive("cube_k0"), c.cube.k0...);
    f(positive("cube_n0"), c.cube.n0...);
    f("supports_fp16", c.supportsFp16...);
    f("supports_int8", c.supportsInt8...);
    f("supports_int4", c.supportsInt4...);
    f("supports_fp32_cube", c.supportsFp32Cube...);
    f(positive("vector_width_bytes"), c.vectorWidthBytes...);
    f(positive("bus_a_bytes_per_cycle"), c.busABytesPerCycle...);
    f(positive("bus_b_bytes_per_cycle"), c.busBBytesPerCycle...);
    f(positive("bus_ub_bytes_per_cycle"), c.busUbBytesPerCycle...);
    f(positive("bus_ext_bytes_per_cycle"), c.busExtBytesPerCycle...);
    f(positive("l0a_bytes"), c.l0aBytes...);
    f(positive("l0b_bytes"), c.l0bBytes...);
    f(positive("l0c_bytes"), c.l0cBytes...);
    f(positive("l1_bytes"), c.l1Bytes...);
    f(positive("ub_bytes"), c.ubBytes...);
    f(positive("dispatch_per_cycle"), c.dispatchPerCycle...);
}

/** Preset for a published design point (Table 5). */
CoreConfig makeCoreConfig(CoreVersion version);

/**
 * The Section 7.2 next-generation core: Ascend-Max plus fp32 cube
 * sources for HPC workloads.
 */
CoreConfig makeNextGenCoreConfig();

} // namespace arch
} // namespace ascend

#endif // ASCEND_ARCH_CORE_CONFIG_HH
