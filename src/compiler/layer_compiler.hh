/**
 * @file
 * Layer-to-ISA lowering ("auto tiling" tier of the software stack).
 *
 * This is the Level-1/Level-2 slice of the paper's multi-tier stack
 * (Section 5): it turns one layer into a tiled, double-buffered
 * program over the six pipes with explicit flag synchronization —
 * exactly what the TBE/TIK compilers emit for the real core.
 *
 * GEMM-like layers lower to a three-level loop nest (mt, nt, kt) with:
 *   MTE2  ext -> L1 operand staging (skipped for L1-resident panels),
 *   MTE1  L1 -> L0A (img2col for convolutions) and L1 -> L0B,
 *   CUBE  one tile GEMM per (mt, nt, kt), accumulating in L0C,
 *   VECTOR L0C -> UB eviction with fused output passes,
 *   MTE3  UB -> external store.
 * Buffer reuse is expressed with counting-semaphore flags seeded with
 * two tokens per buffer, giving depth-2 software pipelining on every
 * queue (the paper's Fig. 3 execution style). Each loop is emitted as
 * repeat blocks (isa::Program::beginBlock) of identical iterations,
 * with the first, last and edge-tile iterations peeled off.
 *
 * Vector layers (normalization, activation, softmax, pooling, and
 * depthwise convolutions, which do not map efficiently onto the cube
 * because their reduction depth is only kh*kw) lower to a streaming
 * MTE2 -> MTE1 -> VECTOR -> MTE3 pipeline staged through L1 and UB.
 */

#ifndef ASCEND_COMPILER_LAYER_COMPILER_HH
#define ASCEND_COMPILER_LAYER_COMPILER_HH

#include "core/cost_model.hh"
#include "core/sparsity.hh"
#include "isa/program.hh"
#include "model/layer.hh"

namespace ascend {
namespace compiler {

/** Flag-id allocation used by generated programs. */
namespace flags {
constexpr std::uint8_t kL0aFree = 0;
constexpr std::uint8_t kL0bFree = 1;
constexpr std::uint8_t kL0cFree = 2;
constexpr std::uint8_t kUbFree = 3;
constexpr std::uint8_t kAL1Ready = 4;
constexpr std::uint8_t kBL1Ready = 5;
constexpr std::uint8_t kAReady = 6;
constexpr std::uint8_t kBReady = 7;
constexpr std::uint8_t kCReady = 8;
constexpr std::uint8_t kOutReady = 9;
constexpr std::uint8_t kInReady = 10;
} // namespace flags

/** Chosen GEMM tile (multiples of the cube fractal, clamped to dims). */
struct GemmTile
{
    std::uint64_t mt = 0;
    std::uint64_t kt = 0;
    std::uint64_t nt = 0;
};

/** Compilation knobs. */
struct CompileOptions
{
    /** Software pipeline depth (tokens seeded per buffer). */
    unsigned pipelineDepth = 2;
    /**
     * Weight sparsity: ZVC-compressed weight staging through the MTE
     * decomp module, plus cube compute skipping when structured.
     */
    core::SparsityConfig sparsity;
    /**
     * Vector-Core mode (Section 3.3: "Ascend core without cube"):
     * GEMM layers lower to the vector unit's general-matrix
     * extension instead of the cube. Used for the automotive SLAM
     * core, where matrices are tiny (quaternion math).
     */
    bool mapGemmToVector = false;

    static constexpr const char *keyTag = "opt:"; ///< SimCache key prefix
};

/** CompileOptions' fields, in SimCache-key order (common/field.hh). */
template <typename F, RecordOf<CompileOptions>... O>
void
forEachField(F &&f, O &...o)
{
    f("pipeline_depth", o.pipelineDepth...);
    f("weight_density", o.sparsity.weightDensity...);
    f("structured", o.sparsity.structured...);
    f("map_gemm_to_vector", o.mapGemmToVector...);
}

/**
 * Compiles a single layer for a fixed core configuration.
 */
class LayerCompiler
{
  public:
    /** Throws ascend::Error(ConfigValidation) on bad options. */
    explicit LayerCompiler(const arch::CoreConfig &config,
                           CompileOptions options = {});

    /**
     * Lower @p layer to a complete program. Throws
     * ascend::Error(InvalidLayer) on malformed shapes (zero dims,
     * kernel larger than the padded input, ...).
     */
    isa::Program compile(const model::Layer &layer) const;

    /**
     * compile() into @p prog, which is reset first: a caller that
     * compiles many layers can reuse one program's storage.
     */
    void compileInto(const model::Layer &layer, isa::Program &prog) const;

    /**
     * Lower a GEMM-like layer with an explicitly chosen tile (the
     * auto-tiler's entry point). @p layer must be a cube layer.
     * Throws ascend::Error(InvalidLayer) on malformed shapes and
     * ascend::Error(TileTooLarge) when the tile overflows the L0
     * buffers even single-buffered.
     */
    isa::Program compileGemmWithTile(const model::Layer &layer,
                                     const GemmTile &tile) const;

    /**
     * Tile selection for a GEMM of logical shape m x k x n: the
     * largest fractal-aligned tile such that double-buffered A/B/C
     * tiles fit L0A / L0B / L0C.
     */
    GemmTile selectTile(std::uint64_t m, std::uint64_t k, std::uint64_t n,
                        DataType dt) const;

    const core::CostModel &costModel() const { return cost_; }

  private:
    void compileGemm(isa::Program &prog, const model::Layer &layer,
                     const GemmTile &tile) const;
    void compileVector(isa::Program &prog, const model::Layer &layer) const;
    void compileVectorGemm(isa::Program &prog,
                           const model::Layer &layer) const;

    /** Datapath passes the vector unit needs for @p layer. */
    static double vectorPasses(const model::Layer &layer);

    /** img2col expansion factor (expanded bytes / unique input bytes). */
    static double im2colExpansion(const model::Layer &layer);

    arch::CoreConfig config_;
    core::CostModel cost_;
    CompileOptions options_;
};

} // namespace compiler
} // namespace ascend

#endif // ASCEND_COMPILER_LAYER_COMPILER_HH
