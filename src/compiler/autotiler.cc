/**
 * @file
 * Auto-tiling search implementation.
 */

#include "compiler/autotiler.hh"

#include <vector>

#include "common/error.hh"
#include "common/logging.hh"

namespace ascend {
namespace compiler {

AutoTiler::AutoTiler(const arch::CoreConfig &config, CompileOptions options)
    : config_(config), options_(options), sim_(config)
{
}

isa::Program
AutoTiler::compileWithTile(const model::Layer &layer,
                           const GemmTile &tile) const
{
    const LayerCompiler lc(config_, options_);
    return lc.compileGemmWithTile(layer, tile);
}

TileSearchResult
AutoTiler::search(const model::Layer &layer) const
{
    if (!layer.isCubeLayer())
        throwError(ErrorCode::ConfigValidation,
                   "AutoTiler needs a GEMM-like layer, got %s",
                   layer.name.c_str());
    std::uint64_t m, k, n;
    layer.lowerToGemm(m, k, n);
    const DataType dt = layer.dtype;
    const arch::CubeShape shape = config_.cubeShapeFor(dt);
    const Bytes es = bytesOf(dt);
    const LayerCompiler lc(config_, options_);

    TileSearchResult result;
    result.heuristic = lc.selectTile(m, k, n, dt);
    result.heuristicCycles =
        sim_.run(lc.compileGemmWithTile(layer, result.heuristic))
            .totalCycles;
    result.best = result.heuristic;
    result.bestCycles = result.heuristicCycles;

    // Enumerate legitimate tiles: power-of-two fractal multiples per
    // dimension that fit the double-buffered L0 buffers.
    auto candidates_for = [](std::uint64_t dim, unsigned fractal) {
        std::vector<std::uint64_t> out;
        for (std::uint64_t mult = 1; mult <= 32; mult *= 2) {
            const std::uint64_t tile = std::uint64_t(fractal) * mult;
            out.push_back(tile);
            if (tile >= dim)
                break;
        }
        return out;
    };
    const auto ms = candidates_for(m, shape.m0);
    const auto ks = candidates_for(k, shape.k0);
    const auto ns = candidates_for(n, shape.n0);

    for (std::uint64_t mt : ms) {
        for (std::uint64_t kt : ks) {
            for (std::uint64_t nt : ns) {
                if (mt * kt * es * 2 > config_.l0aBytes ||
                    kt * nt * es * 2 > config_.l0bBytes ||
                    mt * nt * 4 * 2 > config_.l0cBytes)
                    continue;
                const GemmTile tile{mt, kt, nt};
                const Cycles cycles =
                    sim_.run(lc.compileGemmWithTile(layer, tile))
                        .totalCycles;
                ++result.candidatesTried;
                if (cycles < result.bestCycles) {
                    result.bestCycles = cycles;
                    result.best = tile;
                }
            }
        }
    }
    return result;
}

} // namespace compiler
} // namespace ascend
