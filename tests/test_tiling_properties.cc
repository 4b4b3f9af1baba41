/**
 * @file
 * Property/metamorphic tests for the auto-tiling tier: for seeded
 * random GEMM shapes the chosen tiling must (1) partition the
 * iteration space exactly — every (m, k, n) element covered once —
 * (2) fit the double-buffered L0 buffers, and (3) never get slower
 * when the L1 budget grows (more operand residency can only remove
 * MTE2 traffic, the tile choice itself only depends on L0).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "compiler/autotiler.hh"
#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"

namespace ascend {
namespace {

using compiler::GemmTile;
using compiler::LayerCompiler;

struct Shape
{
    std::uint64_t m, k, n;
};

/** Seeded random shapes spanning tiny edge cases to full panels. */
std::vector<Shape>
randomShapes(std::uint64_t seed, unsigned count, std::uint64_t bound)
{
    Rng rng(seed);
    std::vector<Shape> shapes;
    shapes.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        shapes.push_back(Shape{1 + rng.uniform(bound),
                               1 + rng.uniform(bound),
                               1 + rng.uniform(bound)});
    // Degenerate corners the uniform draw rarely hits.
    shapes.push_back(Shape{1, 1, 1});
    shapes.push_back(Shape{1, bound, 1});
    shapes.push_back(Shape{bound, 1, bound});
    return shapes;
}

/** Elements covered by tiling [0,dim) with tile size t, exactly. */
std::uint64_t
coveredOnce(std::uint64_t dim, std::uint64_t t)
{
    std::uint64_t covered = 0;
    const std::uint64_t tiles = ceilDiv(dim, t);
    for (std::uint64_t i = 0; i < tiles; ++i)
        covered += std::min(t, dim - i * t);
    return covered;
}

TEST(TilingProperties, TilesPartitionIterationSpaceExactlyOnce)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const LayerCompiler lc(cfg);
    for (const Shape &s : randomShapes(0xc0ffee, 40, 3000)) {
        const GemmTile tile =
            lc.selectTile(s.m, s.k, s.n, DataType::Fp16);
        ASSERT_GT(tile.mt, 0u);
        ASSERT_GT(tile.kt, 0u);
        ASSERT_GT(tile.nt, 0u);
        // Clamped tiles never overrun the problem.
        EXPECT_LE(tile.mt, std::max<std::uint64_t>(s.m, cfg.cube.m0));
        // Per-axis exact cover; the cross product then covers every
        // (m, k, n) element exactly once.
        EXPECT_EQ(coveredOnce(s.m, tile.mt), s.m);
        EXPECT_EQ(coveredOnce(s.k, tile.kt), s.k);
        EXPECT_EQ(coveredOnce(s.n, tile.nt), s.n);
    }
}

TEST(TilingProperties, SelectedTilesFitDoubleBufferedL0)
{
    for (auto v : {arch::CoreVersion::Max, arch::CoreVersion::Lite,
                   arch::CoreVersion::Tiny}) {
        const auto cfg = arch::makeCoreConfig(v);
        const LayerCompiler lc(cfg);
        // Tiny is an int8-only core.
        const DataType dt = v == arch::CoreVersion::Tiny
                                ? DataType::Int8
                                : DataType::Fp16;
        const std::uint64_t es = bitsOf(dt) / 8;
        for (const Shape &s : randomShapes(0xfeed + unsigned(v), 30,
                                           4096)) {
            const GemmTile t = lc.selectTile(s.m, s.k, s.n, dt);
            // Operand element size, fp32 accumulator, double buffered.
            EXPECT_LE(t.mt * t.kt * es * 2, cfg.l0aBytes) << cfg.name;
            EXPECT_LE(t.kt * t.nt * es * 2, cfg.l0bBytes) << cfg.name;
            EXPECT_LE(t.mt * t.nt * 4 * 2, cfg.l0cBytes) << cfg.name;
        }
    }
}

TEST(TilingProperties, SearchedTilesFitDoubleBufferedL0)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    const compiler::AutoTiler tiler(cfg);
    for (const Shape &s : randomShapes(0xbead, 4, 512)) {
        const auto r =
            tiler.search(model::Layer::linear("fc", s.m, s.k, s.n));
        EXPECT_LE(r.best.mt * r.best.kt * 2 * 2, cfg.l0aBytes);
        EXPECT_LE(r.best.kt * r.best.nt * 2 * 2, cfg.l0bBytes);
        EXPECT_LE(r.best.mt * r.best.nt * 4 * 2, cfg.l0cBytes);
        EXPECT_LE(r.bestCycles, r.heuristicCycles);
    }
}

TEST(TilingProperties, CyclesMonotonicallyNonIncreasingAsL1Grows)
{
    // Metamorphic relation: growing only l1Bytes keeps the tile
    // (L0-bound) and the work identical but makes operand panels
    // resident sooner, so simulated cycles must not increase.
    const auto base = arch::makeCoreConfig(arch::CoreVersion::Lite);
    for (const Shape &s : randomShapes(0xd1ce, 6, 700)) {
        const auto layer = model::Layer::linear("fc", s.m, s.k, s.n);
        Cycles prev = 0;
        for (unsigned scale : {1u, 2u, 4u, 8u}) {
            auto cfg = base;
            cfg.l1Bytes = base.l1Bytes * scale;
            const LayerCompiler lc(cfg);
            core::CoreSim sim(cfg);
            const Cycles cycles = sim.run(lc.compile(layer)).totalCycles;
            if (prev) {
                EXPECT_LE(cycles, prev)
                    << s.m << "x" << s.k << "x" << s.n << " at L1 x"
                    << scale;
            }
            prev = cycles;
        }
    }
}

} // anonymous namespace
} // namespace ascend
