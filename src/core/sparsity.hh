/**
 * @file
 * Sparse-network support: the MTE's decomp module (paper Section 2.2)
 * decompresses Zero-Value-Compression-encoded tensors on the
 * L1 -> L0 path, and the Lite core is "optimized for structured
 * sparsity" (Section 3.2) so pruned models also save compute.
 *
 * ZVC encodes a tensor as a validity bitmask (1 bit per element) plus
 * the packed non-zero values; the decompressor re-inflates it at bus
 * rate. Structured sparsity (N:M pruning) additionally lets the cube
 * skip whole reduction slices.
 */

#ifndef ASCEND_CORE_SPARSITY_HH
#define ASCEND_CORE_SPARSITY_HH

#include <algorithm>

#include "common/types.hh"

namespace ascend {
namespace core {

/** Sparsity description of a tensor or network. */
struct SparsityConfig
{
    /** Fraction of non-zero weight elements, in [0, 1]. */
    double weightDensity = 1.0;
    /**
     * Structured (N:M) pruning: the cube can skip pruned reduction
     * slices, scaling compute; unstructured pruning only saves
     * storage and bandwidth.
     */
    bool structured = false;

    bool sparse() const { return weightDensity < 1.0; }
};

/** Zero-Value Compression size model. */
class Zvc
{
  public:
    /**
     * Compressed size of a tensor of @p dense_bytes holding elements
     * of @p dt at non-zero @p density: bitmask (1 bit/element) +
     * packed non-zeros. Never reports expansion beyond dense + mask.
     */
    static Bytes
    compressedBytes(Bytes dense_bytes, DataType dt, double density)
    {
        density = std::clamp(density, 0.0, 1.0);
        const std::uint64_t elements =
            (dense_bytes * 8) / std::max(1u, bitsOf(dt));
        const Bytes mask = ceilDiv(elements, 8);
        const auto packed = static_cast<Bytes>(
            double(dense_bytes) * density + 0.5);
        return std::min(mask + packed, mask + dense_bytes);
    }

    /** Compression ratio (compressed / dense) for @p dt at @p density. */
    static double
    ratio(DataType dt, double density)
    {
        const Bytes dense = 1 << 20;
        return double(compressedBytes(dense, dt, density)) / dense;
    }
};

/**
 * Compute-scaling factor for the cube under structured pruning:
 * an N:M scheme at density d skips (1-d) of the reduction slices,
 * quantized to halves (2:4, 1:4) as real datapaths implement it.
 */
inline double
structuredComputeScale(const SparsityConfig &sparsity)
{
    if (!sparsity.structured || !sparsity.sparse())
        return 1.0;
    if (sparsity.weightDensity <= 0.25)
        return 0.25;
    if (sparsity.weightDensity <= 0.5)
        return 0.5;
    return 1.0;
}

} // namespace core
} // namespace ascend

#endif // ASCEND_CORE_SPARSITY_HH
