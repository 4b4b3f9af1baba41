/**
 * @file
 * Layer lowering implementation.
 */

#include "compiler/layer_compiler.hh"

#include <algorithm>
#include <tuple>

#include "common/error.hh"
#include "common/logging.hh"

namespace ascend {
namespace compiler {

using isa::Bus;
using isa::Pipe;
using model::Layer;
using model::LayerKind;

namespace {

/**
 * Reject malformed layer shapes before lowering. Zero dims would
 * silently produce empty or nonsensical programs (or divide by zero
 * in the cost model), so surface them as InvalidLayer errors the
 * caller can attribute to its model description.
 */
void
validateLayer(const Layer &layer)
{
    auto reject = [&layer](const char *why) {
        throwError(ErrorCode::InvalidLayer, "layer %s (%s): %s",
                   layer.name.c_str(), toString(layer.kind), why);
    };
    switch (layer.kind) {
      case LayerKind::Conv2d:
      case LayerKind::DepthwiseConv2d:
      case LayerKind::Pool2d:
        if (layer.batch == 0)
            reject("batch must be positive");
        if (layer.inC == 0 || layer.inH == 0 || layer.inW == 0)
            reject("input dims must be positive");
        if (layer.outC == 0)
            reject("output channels must be positive");
        if (layer.kernelH == 0 || layer.kernelW == 0)
            reject("kernel dims must be positive");
        if (layer.strideH == 0 || layer.strideW == 0)
            reject("strides must be positive");
        if (layer.kernelH > layer.inH + 2 * layer.padH ||
            layer.kernelW > layer.inW + 2 * layer.padW)
            reject("kernel larger than padded input");
        break;
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        if (layer.gemmM == 0 || layer.gemmK == 0 || layer.gemmN == 0)
            reject("GEMM dims must be positive");
        if (layer.matmulCount == 0)
            reject("matmul count must be positive");
        break;
      case LayerKind::LayerNorm:
      case LayerKind::Softmax:
        if (layer.elems == 0)
            reject("element count must be positive");
        if (layer.rowLen == 0)
            reject("row length must be positive");
        break;
      default:
        if (layer.elems == 0)
            reject("element count must be positive");
        break;
    }
}

/**
 * Emit a loop of @p n iterations as runs of identical iterations:
 * body(i) once for the first index of each run, inside a repeat block
 * when the run is longer than one. key(i) names what iteration i
 * emits; it may differ from its neighbours' only at the first and the
 * last index, so the runs are the first, the middle and the last
 * iteration, merged where their keys agree.
 */
template <typename Key, typename Body>
void
emitLoop(isa::Program &prog, std::uint64_t n, Key key, Body body)
{
    std::uint64_t cuts[4] = {0, 0, 0, 0};
    std::size_t ncuts = 0;
    for (const std::uint64_t c : {std::uint64_t(1), n - 1})
        if (c > cuts[ncuts] && c < n && key(c) != key(c - 1))
            cuts[++ncuts] = c;
    cuts[++ncuts] = n;
    for (std::size_t r = 0; r < ncuts; ++r) {
        const std::uint64_t trips = cuts[r + 1] - cuts[r];
        prog.beginBlock(trips);
        body(cuts[r]);
        prog.endBlock();
    }
}

} // anonymous namespace

LayerCompiler::LayerCompiler(const arch::CoreConfig &config,
                             CompileOptions options)
    : config_(config), cost_(config), options_(options)
{
    if (options_.pipelineDepth < 1)
        throwError(ErrorCode::ConfigValidation,
                   "pipeline depth must be >= 1, got %u",
                   options_.pipelineDepth);
}

double
LayerCompiler::im2colExpansion(const Layer &layer)
{
    if (layer.kind != LayerKind::Conv2d)
        return 1.0;
    const double expansion =
        (double(layer.kernelH) * layer.kernelW) /
        (double(layer.strideH) * layer.strideW);
    return std::max(expansion, 1.0);
}

double
LayerCompiler::vectorPasses(const Layer &layer)
{
    switch (layer.kind) {
      case LayerKind::BatchNorm:
        return 2.0;
      case LayerKind::LayerNorm:
        return 4.0;
      case LayerKind::Softmax:
        return 4.0;
      case LayerKind::Elementwise:
        return 1.0;
      case LayerKind::Activation:
        switch (layer.act) {
          case model::ActKind::Relu:
          case model::ActKind::Relu6:
            return 1.0;
          case model::ActKind::Sigmoid:
            return 2.0;
          case model::ActKind::Gelu:
          case model::ActKind::Swish:
            return 3.0;
        }
        return 1.0;
      case LayerKind::Pool2d:
      case LayerKind::DepthwiseConv2d:
        return double(layer.kernelH) * layer.kernelW;
      case LayerKind::CvOp:
        return std::max(layer.cvPasses, 1.0);
      default:
        panic("vectorPasses on cube layer %s", layer.name.c_str());
    }
}

GemmTile
LayerCompiler::selectTile(std::uint64_t m, std::uint64_t k, std::uint64_t n,
                          DataType dt) const
{
    const arch::CubeShape shape = config_.cubeShapeFor(dt);
    const Bytes es = bytesOf(dt);
    const Bytes accum_es = 4; // L0C accumulates in fp32 / int32

    auto align = [](std::uint64_t v, std::uint64_t f) {
        return std::max<std::uint64_t>(roundUp(v, f), f);
    };

    GemmTile t;
    t.mt = align(std::min<std::uint64_t>(m, 8ull * shape.m0), shape.m0);
    t.kt = align(std::min<std::uint64_t>(k, 16ull * shape.k0), shape.k0);
    t.nt = align(std::min<std::uint64_t>(n, 16ull * shape.n0), shape.n0);

    const unsigned buffers = 2; // double buffering in every L0
    auto fits = [&]() {
        return t.mt * t.kt * es * buffers <= config_.l0aBytes &&
               t.kt * t.nt * es * buffers <= config_.l0bBytes &&
               t.mt * t.nt * accum_es * buffers <= config_.l0cBytes;
    };
    auto halve = [&align](std::uint64_t v, std::uint64_t f) {
        return v > f ? align(v / 2, f) : f;
    };

    int guard = 0;
    while (!fits()) {
        // Shrink the dimension participating in the most over-full
        // buffer; prefer kt (it only lengthens the accumulation loop).
        if (t.mt * t.kt * es * buffers > config_.l0aBytes ||
            t.kt * t.nt * es * buffers > config_.l0bBytes) {
            if (t.kt > shape.k0)
                t.kt = halve(t.kt, shape.k0);
            else if (t.nt > shape.n0 &&
                     t.kt * t.nt * es * buffers > config_.l0bBytes)
                t.nt = halve(t.nt, shape.n0);
            else
                t.mt = halve(t.mt, shape.m0);
        } else {
            if (t.mt >= t.nt && t.mt > shape.m0)
                t.mt = halve(t.mt, shape.m0);
            else if (t.nt > shape.n0)
                t.nt = halve(t.nt, shape.n0);
            else
                t.mt = halve(t.mt, shape.m0);
        }
        if (++guard > 64)
            panic("selectTile failed to converge for %llu x %llu x %llu",
                  (unsigned long long)m, (unsigned long long)k,
                  (unsigned long long)n);
    }
    return t;
}

isa::Program
LayerCompiler::compileGemmWithTile(const Layer &layer,
                                   const GemmTile &tile) const
{
    simAssert(layer.isCubeLayer(),
              "compileGemmWithTile needs a cube layer");
    validateLayer(layer);
    // Caller-chosen tiles (the autotiler, sweeps) can request more
    // than the L0 buffers hold even single-buffered; report instead
    // of silently compiling an unexecutable program.
    const Bytes es = bytesOf(layer.dtype);
    const Bytes accum_es = 4;
    if (tile.mt == 0 || tile.kt == 0 || tile.nt == 0)
        throwError(ErrorCode::TileTooLarge,
                   "layer %s: tile dims must be positive",
                   layer.name.c_str());
    if (tile.mt * tile.kt * es > config_.l0aBytes ||
        tile.kt * tile.nt * es > config_.l0bBytes ||
        tile.mt * tile.nt * accum_es > config_.l0cBytes)
        throwError(ErrorCode::TileTooLarge,
                   "layer %s: tile %llux%llux%llu overflows L0 "
                   "(A %llu/%llu B %llu/%llu C %llu/%llu bytes)",
                   layer.name.c_str(),
                   static_cast<unsigned long long>(tile.mt),
                   static_cast<unsigned long long>(tile.kt),
                   static_cast<unsigned long long>(tile.nt),
                   static_cast<unsigned long long>(tile.mt * tile.kt * es),
                   static_cast<unsigned long long>(config_.l0aBytes),
                   static_cast<unsigned long long>(tile.kt * tile.nt * es),
                   static_cast<unsigned long long>(config_.l0bBytes),
                   static_cast<unsigned long long>(
                       tile.mt * tile.nt * accum_es),
                   static_cast<unsigned long long>(config_.l0cBytes));
    isa::Program prog(layer.name);
    compileGemm(prog, layer, tile);
    return prog;
}

void
LayerCompiler::compileGemm(isa::Program &prog, const Layer &layer,
                           const GemmTile &tile) const
{
    std::uint64_t m, k, n;
    layer.lowerToGemm(m, k, n);
    const DataType dt = layer.dtype;
    const Bytes es = bytesOf(dt);
    double expansion = im2colExpansion(layer);
    // Backward convolution GEMMs carry raw-volume overrides: their A
    // operand is the im2col matrix of the stored activations, which
    // is streamed raw and expanded on the fly (see Layer field docs).
    if (layer.inputBytesOverride) {
        expansion = std::max(1.0, double(m * k * es * layer.matmulCount) /
                                      double(layer.inputBytesOverride));
    }
    // Similarly a dX output collapses back to the raw input tensor.
    double out_factor = 1.0;
    if (layer.outputBytesOverride) {
        out_factor =
            std::min(1.0, double(layer.outputBytesOverride) /
                              double(m * n * es * layer.matmulCount));
    }
    const double evict_passes =
        layer.kind == LayerKind::Conv2d ? 1.0 : 2.0;

    // Sparse weights travel ZVC-compressed up to L1 and are inflated
    // by the MTE decomp module on the way into L0B; structured
    // pruning additionally lets the cube skip reduction slices.
    const core::SparsityConfig &sparsity = options_.sparsity;
    const double compute_scale = core::structuredComputeScale(sparsity);

    const std::uint64_t m_tiles = ceilDiv(m, tile.mt);
    const std::uint64_t n_tiles = ceilDiv(n, tile.nt);
    const std::uint64_t k_tiles = ceilDiv(k, tile.kt);

    // L1 residency: can one A panel (mt x K, raw form) stay in L1 and
    // be reused across all n tiles? Can the whole B matrix stay and be
    // reused across all m tiles? 40% of L1 is budgeted per operand,
    // leaving room for double buffering and the output path.
    const Bytes l1_budget = config_.l1Bytes * 2 / 5;
    const Bytes a_panel_raw = static_cast<Bytes>(
        double(tile.mt * k) * es / expansion);
    const bool a_panel_resident = a_panel_raw <= l1_budget;
    const bool b_resident = k * n * es <= l1_budget;

    // Exact (flattened) instruction count of the loop nest below: 11
    // per (m, n, k) iteration, 3 more per operand staged into L1, 8 per
    // output tile plus the L0C wait on its first and the C-ready set
    // on its last k step, and the seeded tokens.
    const std::uint64_t out_tiles = layer.matmulCount * m_tiles * n_tiles;
    const std::uint64_t iters = out_tiles * k_tiles;
    const std::uint64_t a_loads = layer.matmulCount * m_tiles * k_tiles *
                                  (a_panel_resident ? 1 : n_tiles);
    const std::uint64_t b_loads = layer.matmulCount * n_tiles * k_tiles *
                                  (b_resident ? 1 : m_tiles);
    const std::size_t expected = prog.size() + 4 * options_.pipelineDepth +
                                 11 * iters + 3 * (a_loads + b_loads) +
                                 10 * out_tiles;

    // Seed the free-buffer tokens (software pipeline depth).
    for (unsigned d = 0; d < options_.pipelineDepth; ++d) {
        prog.setFlag(Pipe::Scalar, flags::kL0aFree, "seed");
        prog.setFlag(Pipe::Scalar, flags::kL0bFree, "seed");
        prog.setFlag(Pipe::Scalar, flags::kL0cFree, "seed");
        prog.setFlag(Pipe::Scalar, flags::kUbFree, "seed");
    }

    // The loops are emitted as repeat blocks. An iteration's code
    // depends on its tile extents (only the last tile of a dimension
    // may be short), on whether it stages an L1-resident operand (the
    // first n tile for A, the first m tile for B) and, for k, on
    // whether it opens or closes the accumulation.
    auto extent = [](std::uint64_t i, std::uint64_t t, std::uint64_t d) {
        return std::min(t, d - i * t);
    };
    auto k_key = [&](std::uint64_t ki) {
        return std::tuple(ki == 0, ki == k_tiles - 1, extent(ki, tile.kt, k));
    };
    auto n_key = [&](std::uint64_t ni) {
        return std::tuple(a_panel_resident && ni == 0,
                          extent(ni, tile.nt, n));
    };
    auto m_key = [&](std::uint64_t mi) {
        return std::tuple(b_resident && mi == 0, extent(mi, tile.mt, m));
    };

    prog.beginBlock(layer.matmulCount);
    emitLoop(prog, m_tiles, m_key, [&](std::uint64_t mi) {
        const std::uint64_t cm = extent(mi, tile.mt, m);
        const bool load_b = !b_resident || mi == 0;
        emitLoop(prog, n_tiles, n_key, [&](std::uint64_t ni) {
            const std::uint64_t cn = extent(ni, tile.nt, n);
            const bool load_a = !a_panel_resident || ni == 0;
            emitLoop(prog, k_tiles, k_key, [&](std::uint64_t ki) {
                const std::uint64_t ck = extent(ki, tile.kt, k);

                const Bytes a_expanded = cm * ck * es;
                const Bytes a_raw = static_cast<Bytes>(
                    double(a_expanded) / expansion);
                const Bytes b_bytes = ck * cn * es;

                // Stage operands into L1 (skip reused panels).
                if (load_a) {
                    prog.exec(Pipe::Mte2, cost_.mte2(a_raw), 0,
                              {{Bus::ExtA, a_raw}, {Bus::L1Write, a_raw}},
                              "mte2.A");
                    prog.setFlag(Pipe::Mte2, flags::kAL1Ready);
                }
                const Bytes b_stored = sparsity.sparse()
                    ? core::Zvc::compressedBytes(b_bytes, dt,
                                                 sparsity.weightDensity)
                    : b_bytes;
                if (load_b) {
                    prog.exec(Pipe::Mte2, cost_.mte2(b_stored), 0,
                              {{Bus::ExtB, b_stored},
                               {Bus::L1Write, b_stored}},
                              "mte2.B");
                    prog.setFlag(Pipe::Mte2, flags::kBL1Ready);
                }

                // L1 -> L0A with img2col expansion. The transfer
                // occupies bus A for the *expanded* volume, but the L1
                // read port only sees the *raw* bytes: the img2col
                // engine line-buffers each input row and replays it
                // into every overlapping patch.
                prog.waitFlag(Pipe::Mte1, flags::kL0aFree);
                if (load_a)
                    prog.waitFlag(Pipe::Mte1, flags::kAL1Ready);
                prog.exec(Pipe::Mte1, cost_.mte1A(a_expanded), 0,
                          {{Bus::L1Read, a_raw}}, "mte1.A");
                prog.setFlag(Pipe::Mte1, flags::kAReady);

                // L1 -> L0B.
                // The decomp module reads the compressed stream from
                // L1 and inflates at bus-B rate into L0B.
                prog.waitFlag(Pipe::Mte1, flags::kL0bFree);
                if (load_b)
                    prog.waitFlag(Pipe::Mte1, flags::kBL1Ready);
                prog.exec(Pipe::Mte1, cost_.mte1B(b_bytes), 0,
                          {{Bus::L1Read, b_stored}}, "mte1.B");
                prog.setFlag(Pipe::Mte1, flags::kBReady);

                // Cube tile GEMM, accumulating into L0C.
                prog.waitFlag(Pipe::Cube, flags::kAReady);
                prog.waitFlag(Pipe::Cube, flags::kBReady);
                if (ki == 0)
                    prog.waitFlag(Pipe::Cube, flags::kL0cFree);
                Cycles cube_cycles = cost_.cubeGemm(cm, ck, cn, dt);
                if (compute_scale < 1.0)
                    cube_cycles = std::max<Cycles>(
                        core::CostModel::kComputeOverhead + 1,
                        static_cast<Cycles>(double(cube_cycles) *
                                            compute_scale));
                prog.exec(Pipe::Cube, cube_cycles,
                          core::CostModel::gemmFlops(cm, ck, cn), {},
                          "cube.gemm");
                prog.setFlag(Pipe::Cube, flags::kL0aFree);
                prog.setFlag(Pipe::Cube, flags::kL0bFree);
                if (ki == k_tiles - 1)
                    prog.setFlag(Pipe::Cube, flags::kCReady);
            });

            // Evict the finished output tile through the vector unit
            // (precision conversion + bias), then store.
            const Bytes out_bytes = cm * cn * es;
            const Bytes out_ext = std::max<Bytes>(
                1, static_cast<Bytes>(double(out_bytes) * out_factor));
            prog.waitFlag(Pipe::Vector, flags::kCReady);
            prog.waitFlag(Pipe::Vector, flags::kUbFree);
            prog.exec(Pipe::Vector,
                      cost_.vectorOp(cm * cn, dt, evict_passes), 0,
                      {{Bus::UbWrite, out_bytes}}, "vec.evict");
            prog.setFlag(Pipe::Vector, flags::kL0cFree);
            prog.setFlag(Pipe::Vector, flags::kOutReady);

            prog.waitFlag(Pipe::Mte3, flags::kOutReady);
            prog.exec(Pipe::Mte3, cost_.mte3Ext(out_ext), 0,
                      {{Bus::UbRead, out_bytes}, {Bus::ExtOut, out_ext}},
                      "mte3.out");
            prog.setFlag(Pipe::Mte3, flags::kUbFree);
        });
    });
    prog.endBlock();
    simAssert(prog.size() == expected,
              "compileGemm emitted the expected instruction count");
}

void
LayerCompiler::compileVector(isa::Program &prog, const Layer &layer) const
{
    const DataType dt = layer.dtype;
    const Bytes es = bytesOf(dt);
    const double passes = vectorPasses(layer);

    // Output-tile sizing: UB holds a double-buffered input tile and
    // output tile pair.
    std::uint64_t out_elems;
    Bytes in_bytes_total;
    switch (layer.kind) {
      case LayerKind::Pool2d:
      case LayerKind::DepthwiseConv2d:
        out_elems = layer.outputBytes() / es;
        in_bytes_total = layer.inputBytes() + layer.weightBytes();
        break;
      case LayerKind::Elementwise:
        out_elems = layer.elems;
        in_bytes_total = 2 * layer.inputBytes(); // two source operands
        break;
      default:
        out_elems = std::max<std::uint64_t>(layer.outputBytes() / es, 1);
        in_bytes_total = layer.inputBytes() + layer.weightBytes();
        break;
    }
    simAssert(out_elems > 0, "vector layer with no elements");

    const Bytes out_bytes_total = out_elems * es;
    const double in_ratio =
        double(in_bytes_total) / double(out_bytes_total);

    const Bytes ub_slot = config_.ubBytes /
                          (2ull * options_.pipelineDepth);
    // Split the slot between input and output proportionally.
    Bytes out_tile_bytes = static_cast<Bytes>(
        double(ub_slot) / (1.0 + in_ratio));
    out_tile_bytes = std::max<Bytes>(out_tile_bytes / es, 1) * es;
    const std::uint64_t tiles = ceilDiv(out_bytes_total, out_tile_bytes);

    const std::size_t expected =
        prog.size() + options_.pipelineDepth + 12 * tiles;
    for (unsigned d = 0; d < options_.pipelineDepth; ++d)
        prog.setFlag(Pipe::Scalar, flags::kUbFree, "seed");

    // One tile's code depends only on its (output, input) byte counts:
    // consecutive tiles that agree form one repeat block.
    auto emit_tile = [&](Bytes ob, Bytes ib) {
        const std::uint64_t tile_elems = std::max<std::uint64_t>(ob / es, 1);

        // Stage input: ext -> L1 -> UB.
        prog.waitFlag(Pipe::Mte2, flags::kUbFree);
        prog.exec(Pipe::Mte2, cost_.mte2(ib), 0,
                  {{Bus::ExtA, ib}, {Bus::L1Write, ib}}, "mte2.in");
        prog.setFlag(Pipe::Mte2, flags::kInReady);

        // Sliding-window ops re-stage each input row once per kernel
        // row (halo re-reads): at batch-1 mobile tile sizes the UB is
        // too small to keep kernelH rows of every channel resident.
        const Bytes staged =
            (layer.kind == LayerKind::DepthwiseConv2d ||
             layer.kind == LayerKind::Pool2d)
                ? ib * layer.kernelH : ib;
        prog.waitFlag(Pipe::Mte1, flags::kInReady);
        prog.exec(Pipe::Mte1, cost_.mte3L1(staged), 0,
                  {{Bus::L1Read, staged}, {Bus::UbWrite, staged}},
                  "mte1.in");
        prog.setFlag(Pipe::Mte1, flags::kAReady);

        prog.waitFlag(Pipe::Vector, flags::kAReady);
        prog.exec(Pipe::Vector, cost_.vectorOp(tile_elems, dt, passes),
                  static_cast<Flops>(double(tile_elems) * passes),
                  {{Bus::UbRead, ib}, {Bus::UbWrite, ob}}, "vec.op");
        prog.setFlag(Pipe::Vector, flags::kOutReady);

        prog.waitFlag(Pipe::Mte3, flags::kOutReady);
        prog.exec(Pipe::Mte3, cost_.mte3Ext(ob), 0,
                  {{Bus::UbRead, ob}, {Bus::ExtOut, ob}}, "mte3.out");
        prog.setFlag(Pipe::Mte3, flags::kUbFree);
    };

    Bytes out_remaining = out_bytes_total;
    Bytes in_remaining = in_bytes_total;
    Bytes run_ob = 0, run_ib = 0;
    std::uint64_t run_len = 0;
    auto flush = [&]() {
        prog.beginBlock(run_len);
        emit_tile(run_ob, run_ib);
        prog.endBlock();
    };
    for (std::uint64_t ti = 0; ti < tiles; ++ti) {
        const Bytes ob = std::min(out_tile_bytes, out_remaining);
        const Bytes ib = ti + 1 == tiles
            ? in_remaining
            : std::min<Bytes>(static_cast<Bytes>(double(ob) * in_ratio),
                              in_remaining);
        out_remaining -= ob;
        in_remaining -= ib;
        if (run_len && (ob != run_ob || ib != run_ib)) {
            flush();
            run_len = 0;
        }
        run_ob = ob;
        run_ib = ib;
        ++run_len;
    }
    flush();
    simAssert(prog.size() == expected,
              "compileVector emitted the expected instruction count");
}

isa::Program
LayerCompiler::compile(const Layer &layer) const
{
    isa::Program prog;
    compileInto(layer, prog);
    return prog;
}

void
LayerCompiler::compileInto(const Layer &layer, isa::Program &prog) const
{
    validateLayer(layer);
    prog.reset(layer.name);
    if (layer.isCubeLayer() && !options_.mapGemmToVector) {
        std::uint64_t m, k, n;
        layer.lowerToGemm(m, k, n);
        compileGemm(prog, layer, selectTile(m, k, n, layer.dtype));
    } else if (layer.isCubeLayer())
        compileVectorGemm(prog, layer);
    else
        compileVector(prog, layer);
}

void
LayerCompiler::compileVectorGemm(isa::Program &prog,
                                 const Layer &layer) const
{
    // Vector-Core lowering: each of the m*n outputs needs k MAC
    // passes through the lanes (the "general matrix calculation
    // (quaternion)" extension of Section 3.3).
    std::uint64_t m, k, n;
    layer.lowerToGemm(m, k, n);
    Layer as_vector = Layer::cvOp(layer.name + ".vgemm",
                                  m * n * layer.matmulCount,
                                  double(k), layer.dtype);
    compileVector(prog, as_vector);
}

} // namespace compiler
} // namespace ascend
