/**
 * @file
 * Tests for the auto-tiling search (Section 5.1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hh"
#include "compiler/autotiler.hh"

namespace ascend {
namespace {

using compiler::AutoTiler;
using compiler::GemmTile;
using model::Layer;

TEST(AutoTiler, NeverLosesToHeuristic)
{
    AutoTiler tiler(arch::makeCoreConfig(arch::CoreVersion::Max));
    for (const auto &layer :
         {Layer::linear("a", 384, 1024, 4096),
          Layer::linear("b", 17, 33, 65),
          Layer::conv2d("c", 1, 64, 28, 28, 128, 3, 1, 1)}) {
        const auto r = tiler.search(layer);
        EXPECT_LE(r.bestCycles, r.heuristicCycles) << layer.name;
        EXPECT_GT(r.candidatesTried, 0u);
    }
}

TEST(AutoTiler, BestTileFitsBuffers)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    AutoTiler tiler(cfg);
    const auto r = tiler.search(Layer::linear("fc", 512, 512, 512));
    EXPECT_LE(r.best.mt * r.best.kt * 2 * 2, cfg.l0aBytes);
    EXPECT_LE(r.best.kt * r.best.nt * 2 * 2, cfg.l0bBytes);
    EXPECT_LE(r.best.mt * r.best.nt * 4 * 2, cfg.l0cBytes);
}

TEST(AutoTiler, ExplicitTileCompilesAndRuns)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    AutoTiler tiler(cfg);
    core::CoreSim sim(cfg);
    const Layer layer = Layer::linear("fc", 256, 256, 256);
    const GemmTile tiny{16, 16, 16};
    const GemmTile big{128, 128, 128};
    const auto r_tiny = sim.run(tiler.compileWithTile(layer, tiny));
    const auto r_big = sim.run(tiler.compileWithTile(layer, big));
    // Same work either way...
    EXPECT_EQ(r_tiny.totalFlops, r_big.totalFlops);
    // ...but fractal-sized tiles drown in per-instruction overhead.
    EXPECT_GT(r_tiny.totalCycles, 2 * r_big.totalCycles);
}

TEST(AutoTiler, SearchesTheWholeLegitimateSpace)
{
    // Max's 64 KiB L0A/L0B and 256 KiB L0C admit more than 64 of the
    // 6^3 fractal-multiple tiles of a 512-cube GEMM: every one must be
    // simulated, and the best must be the argmin over all of them.
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const Layer layer = Layer::linear("fc", 512, 512, 512);
    AutoTiler tiler(cfg);
    core::CoreSim sim(cfg);
    const auto r = tiler.search(layer);

    Cycles best = r.heuristicCycles;
    unsigned legitimate = 0;
    for (std::uint64_t mt = 16; mt <= 512; mt *= 2) {
        for (std::uint64_t kt = 16; kt <= 512; kt *= 2) {
            for (std::uint64_t nt = 16; nt <= 512; nt *= 2) {
                if (mt * kt * 2 * 2 > cfg.l0aBytes ||
                    kt * nt * 2 * 2 > cfg.l0bBytes ||
                    mt * nt * 4 * 2 > cfg.l0cBytes)
                    continue;
                ++legitimate;
                best = std::min(
                    best,
                    sim.run(tiler.compileWithTile(layer, {mt, kt, nt}))
                        .totalCycles);
            }
        }
    }
    EXPECT_GT(legitimate, 64u);
    EXPECT_EQ(r.candidatesTried, legitimate);
    EXPECT_EQ(r.bestCycles, best);
    EXPECT_EQ(sim.run(tiler.compileWithTile(layer, r.best)).totalCycles,
              best);
}

TEST(AutoTiler, VectorLayerRejected)
{
    AutoTiler tiler(arch::makeCoreConfig(arch::CoreVersion::Max));
    try {
        tiler.search(model::Layer::batchNorm("bn", 100));
        FAIL() << "a vector layer must be refused";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::ConfigValidation);
        EXPECT_NE(std::string(e.what()).find("GEMM-like"),
                  std::string::npos)
            << e.what();
    }
}

} // anonymous namespace
} // namespace ascend
