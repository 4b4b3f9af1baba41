/**
 * @file
 * Layer-level IR for DNN workloads.
 *
 * The evaluation in the paper depends only on layer *shapes* (FLOPs,
 * operand volumes, cube-vs-vector affinity), never on weight values,
 * so the IR is a shape-accurate description: one tagged struct per
 * layer with factory constructors per kind and derived volume/FLOP
 * helpers. Networks are ordered layer sequences (model/network.hh).
 */

#ifndef ASCEND_MODEL_LAYER_HH
#define ASCEND_MODEL_LAYER_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ascend {
namespace model {

/** Supported layer kinds. */
enum class LayerKind {
    Conv2d,          ///< dense convolution (maps to cube via img2col)
    DepthwiseConv2d, ///< depthwise convolution (vector-unit bound)
    Linear,          ///< fully-connected / single GEMM
    BatchedMatmul,   ///< batch of small GEMMs (attention scores/context)
    Pool2d,          ///< average or max pooling
    BatchNorm,       ///< per-channel normalization
    LayerNorm,       ///< per-token normalization
    Activation,      ///< ReLU / GELU / sigmoid / swish
    Softmax,         ///< row-wise softmax
    Elementwise,     ///< binary elementwise op (residual add etc.)
    CvOp,            ///< CV / SLAM operator on the vector unit (RPN,
                     ///< RoiAlign, NMS, sort, stereo, quaternion...)
};

const char *toString(LayerKind kind);

/** Activation flavours (cost differs in datapath passes). */
enum class ActKind { Relu, Relu6, Gelu, Sigmoid, Swish };

const char *toString(ActKind act);

/**
 * One layer. Fields are meaningful per kind; the factory functions
 * are the only sanctioned way to build one.
 */
struct Layer
{
    LayerKind kind = LayerKind::Conv2d;
    std::string name;
    DataType dtype = DataType::Fp16;

    /// @{ Convolution / pooling geometry (NCHW).
    unsigned batch = 1;
    unsigned inC = 0, outC = 0;
    unsigned inH = 0, inW = 0;
    unsigned kernelH = 1, kernelW = 1;
    unsigned strideH = 1, strideW = 1;
    unsigned padH = 0, padW = 0;
    /// @}

    /// @{ GEMM geometry: (m x k) * (k x n), repeated matmulCount times.
    std::uint64_t gemmM = 0, gemmK = 0, gemmN = 0;
    std::uint64_t matmulCount = 1;
    /// @}

    /// Element count for pure vector layers (norm/act/softmax/eltwise).
    std::uint64_t elems = 0;
    /// Row length for Softmax / LayerNorm reductions.
    std::uint64_t rowLen = 0;

    /// Datapath passes per element for CvOp layers (cost knob for the
    /// Table 2 / Section 3.3 vector-unit operator extensions).
    double cvPasses = 1.0;

    /// Extra vector passes fused into a cube layer's output eviction
    /// (set by compiler::fuseNetwork when it folds the following
    /// normalization / activation / residual layers into this one).
    double fusedEvictPasses = 0.0;

    ActKind act = ActKind::Relu;

    /// @{ Optional overrides for operand traffic volumes. Backward
    /// GEMMs of convolutions logically operate on the im2col-expanded
    /// matrix, but real implementations stream the *raw* activation
    /// tensor and expand on the fly; these overrides carry the raw
    /// volumes so memory models do not overcharge by the expansion
    /// factor. Zero means "no override".
    Bytes inputBytesOverride = 0;
    Bytes outputBytesOverride = 0;
    /// @}

    /// @{ Factories.
    static Layer conv2d(std::string name, unsigned batch, unsigned in_c,
                        unsigned in_h, unsigned in_w, unsigned out_c,
                        unsigned kernel, unsigned stride, unsigned pad,
                        DataType dt = DataType::Fp16);
    static Layer depthwiseConv2d(std::string name, unsigned batch,
                                 unsigned channels, unsigned in_h,
                                 unsigned in_w, unsigned kernel,
                                 unsigned stride, unsigned pad,
                                 DataType dt = DataType::Fp16);
    static Layer linear(std::string name, std::uint64_t m, std::uint64_t k,
                        std::uint64_t n, DataType dt = DataType::Fp16);
    static Layer batchedMatmul(std::string name, std::uint64_t count,
                               std::uint64_t m, std::uint64_t k,
                               std::uint64_t n,
                               DataType dt = DataType::Fp16);
    static Layer pool2d(std::string name, unsigned batch, unsigned channels,
                        unsigned in_h, unsigned in_w, unsigned kernel,
                        unsigned stride, DataType dt = DataType::Fp16);
    static Layer batchNorm(std::string name, std::uint64_t elems,
                           DataType dt = DataType::Fp16);
    static Layer layerNorm(std::string name, std::uint64_t rows,
                           std::uint64_t row_len,
                           DataType dt = DataType::Fp16);
    static Layer activation(std::string name, std::uint64_t elems,
                            ActKind act, DataType dt = DataType::Fp16);
    static Layer softmax(std::string name, std::uint64_t rows,
                         std::uint64_t row_len,
                         DataType dt = DataType::Fp16);
    static Layer elementwise(std::string name, std::uint64_t elems,
                             DataType dt = DataType::Fp16);
    /**
     * Generic CV / SLAM vector operator: @p passes datapath passes
     * over @p elems elements (e.g. NMS ~ log2(boxes) passes, stereo
     * matching ~ disparity-range passes, sorting ~ log2(n) passes).
     */
    static Layer cvOp(std::string name, std::uint64_t elems,
                      double passes, DataType dt = DataType::Fp16);
    /// @}

    /// @{ Derived geometry.
    unsigned outH() const;
    unsigned outW() const;
    /// @}

    /** True if the layer's main work runs on the cube unit. */
    bool isCubeLayer() const;

    /** MAC-based operation count (2 ops per MAC for GEMM-like work). */
    Flops flops() const;

    /** Activation input volume. */
    Bytes inputBytes() const;

    /** Weight/parameter volume (0 for parameter-free layers). */
    Bytes weightBytes() const;

    /** Activation output volume. */
    Bytes outputBytes() const;

    /**
     * The GEMM this layer lowers to after img2col:
     * m = batch * outH * outW, k = inC * kh * kw, n = outC.
     * Only valid for Conv2d / Linear / BatchedMatmul.
     */
    void lowerToGemm(std::uint64_t &m, std::uint64_t &k,
                     std::uint64_t &n) const;
};

/**
 * Layer's shape fields, in SimCache-key order: calls
 * f(key, l.member...) once per field, passing that member of every
 * layer in @p l. This list and forEachField's two byte overrides are
 * the only place the keyed fields are named: the cache key,
 * Graph::fingerprint and the surrogate's spot-check hash all walk
 * them. kind is keyed ahead of the list by every consumer and name
 * is never keyed.
 */
template <typename F, RecordOf<Layer>... L>
constexpr void
forEachShapeField(F &&f, L &...l)
{
    f("dt", l.dtype...);
    f("b", l.batch...);
    f("ic", l.inC...);
    f("oc", l.outC...);
    f("ih", l.inH...);
    f("iw", l.inW...);
    f("kh", l.kernelH...);
    f("kw", l.kernelW...);
    f("sh", l.strideH...);
    f("sw", l.strideW...);
    f("ph", l.padH...);
    f("pw", l.padW...);
    f("m", l.gemmM...);
    f("k", l.gemmK...);
    f("n", l.gemmN...);
    f("cnt", l.matmulCount...);
    f("el", l.elems...);
    f("rl", l.rowLen...);
    f("cvp", l.cvPasses...);
    f("fep", l.fusedEvictPasses...);
    f("act", l.act...);
}

/** Every keyed field of Layer: the shape fields, then the overrides. */
template <typename F, RecordOf<Layer>... L>
constexpr void
forEachField(F &&f, L &...l)
{
    forEachShapeField(f, l...);
    f("ibo", l.inputBytesOverride...);
    f("obo", l.outputBytesOverride...);
}

} // namespace model
} // namespace ascend

#endif // ASCEND_MODEL_LAYER_HH
