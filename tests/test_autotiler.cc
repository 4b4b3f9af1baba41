/**
 * @file
 * Tests for the auto-tiling search (Section 5.1).
 */

#include <gtest/gtest.h>

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
        const auto r = tiler.search(layer, 32);
        EXPECT_LE(r.bestCycles, r.heuristicCycles) << layer.name;
        EXPECT_GT(r.candidatesTried, 0u);
    }
}

TEST(AutoTiler, BestTileFitsBuffers)
{
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Lite);
    AutoTiler tiler(cfg);
    const auto r =
        tiler.search(Layer::linear("fc", 512, 512, 512), 48);
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

TEST(AutoTiler, CandidateCapIsRespected)
{
    AutoTiler tiler(arch::makeCoreConfig(arch::CoreVersion::Max));
    const auto r =
        tiler.search(Layer::linear("fc", 2048, 2048, 2048), 8);
    EXPECT_LE(r.candidatesTried, 8u);
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
