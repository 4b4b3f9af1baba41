/**
 * @file
 * Core configuration presets matching paper Table 5.
 */

#include "arch/core_config.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/field.hh"
#include "common/logging.hh"

namespace ascend {
namespace arch {

const char *
toString(CoreVersion v)
{
    switch (v) {
      case CoreVersion::Tiny: return "Ascend-Tiny";
      case CoreVersion::Lite: return "Ascend-Lite";
      case CoreVersion::Mini: return "Ascend-Mini";
      case CoreVersion::Std:  return "Ascend";
      case CoreVersion::Max:  return "Ascend-Max";
    }
    return "?";
}

CubeShape
CoreConfig::cubeShapeFor(DataType dt) const
{
    CubeShape shape = cube;
    switch (dt) {
      case DataType::Fp16:
        if (!supportsFp16)
            fatal("core %s does not support fp16 sources", name.c_str());
        break;
      case DataType::Fp32:
        // Section 7.2: fp32 cube sources are a next-generation
        // feature; the datapath pairs fp16 multipliers, halving the
        // reduction dimension.
        if (!supportsFp32Cube)
            fatal("core %s does not support fp32 cube sources "
                  "(next-generation feature)", name.c_str());
        shape.k0 = std::max(1u, shape.k0 / 2);
        break;
      case DataType::Int8:
        if (!supportsInt8)
            fatal("core %s does not support int8 sources", name.c_str());
        // The int8 datapath reuses the fp16 multipliers with a doubled
        // reduction dimension (16x16x16 fp16 -> 16x32x16 int8).
        if (supportsFp16)
            shape.k0 *= 2;
        break;
      case DataType::Int4:
        if (!supportsInt4)
            fatal("core %s does not support int4 sources", name.c_str());
        shape.k0 *= 4;
        break;
      default:
        fatal("core %s: unsupported cube source type %s", name.c_str(),
              ascend::toString(dt));
    }
    return shape;
}

void
CoreConfig::validate() const
{
    // User-facing checks: a hand-edited config file lands here, so
    // report ConfigValidation errors callers can catch and attribute
    // rather than aborting the process.
    checkFields(*this, "core " + name);
    // L0A must hold at least two fractal tiles of A for double buffering.
    const Bytes fractal =
        2 * bytesOf(DataType::Fp16, std::uint64_t(cube.m0) * cube.k0);
    if (l0aBytes < fractal)
        throwError(ErrorCode::ConfigValidation,
                   "core %s: L0A too small for a double-buffered "
                   "fractal (%llu < %llu bytes)", name.c_str(),
                   static_cast<unsigned long long>(l0aBytes),
                   static_cast<unsigned long long>(fractal));
}

CoreConfig
makeNextGenCoreConfig()
{
    CoreConfig c = makeCoreConfig(CoreVersion::Max);
    c.name = "ascend-next-gen";
    c.supportsFp32Cube = true;
    c.supportsInt4 = true;
    return c;
}

CoreConfig
makeCoreConfig(CoreVersion version)
{
    CoreConfig c;
    c.version = version;
    switch (version) {
      case CoreVersion::Max:
        c.name = "ascend-max";
        // Defaults above already describe Ascend-Max (910): cube
        // 8192 FLOPS/cycle, vector 256 B, busA 4 TB/s, busB/UB 2 TB/s,
        // LLC 94 GB/s per core.
        c.supportsInt4 = false;
        break;
      case CoreVersion::Std:
        c.name = "ascend";
        // Same datapath as Max; the 610 SoC gives it 111 GB/s of LLC
        // bandwidth per core and adds int4 support for automotive.
        c.busExtBytesPerCycle = 111;
        c.supportsInt4 = true;
        break;
      case CoreVersion::Mini:
        c.name = "ascend-mini";
        c.version = CoreVersion::Mini;
        c.busExtBytesPerCycle = 96; // Ascend 310: 96 GB/s per core
        break;
      case CoreVersion::Lite:
        c.name = "ascend-lite";
        c.clockGhz = 0.75;
        c.cube = CubeShape{4, 16, 16}; // 2048 FLOPS/cycle
        c.vectorWidthBytes = 128;
        // 768 GB/s at 0.75 GHz on each of A / B / UB.
        c.busABytesPerCycle = 1024;
        c.busBBytesPerCycle = 1024;
        c.busUbBytesPerCycle = 1024;
        c.busExtBytesPerCycle = 51; // 38.4 GB/s at 0.75 GHz
        c.l0aBytes = 32 * kKiB;
        c.l0bBytes = 32 * kKiB;
        c.l0cBytes = 128 * kKiB;
        c.l1Bytes = 512 * kKiB;
        c.ubBytes = 128 * kKiB;
        break;
      case CoreVersion::Tiny:
        c.name = "ascend-tiny";
        c.clockGhz = 0.75;
        c.cube = CubeShape{4, 32, 4}; // 1024 int8 OPS/cycle
        c.supportsFp16 = false;      // fp16 forbidden (power limit)
        c.vectorWidthBytes = 32;
        // 384 GB/s A/B, 192 GB/s UB at 0.75 GHz.
        c.busABytesPerCycle = 512;
        c.busBBytesPerCycle = 512;
        c.busUbBytesPerCycle = 256;
        c.busExtBytesPerCycle = 11;  // direct DDR, ~8 GB/s (no LLC)
        c.l0aBytes = 16 * kKiB;
        c.l0bBytes = 16 * kKiB;
        c.l0cBytes = 32 * kKiB;
        c.l1Bytes = 128 * kKiB;
        c.ubBytes = 32 * kKiB;
        break;
    }
    c.validate();
    return c;
}

} // namespace arch
} // namespace ascend
