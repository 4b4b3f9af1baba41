/**
 * @file
 * Table 9: automotive SoC PPA — Ascend 610 against the published
 * Xavier / Tesla-FSD / EyeQ5 numbers, plus the effects the paper
 * argues qualitatively: systolic pipelines bubble on small
 * perception networks while the Ascend cube does not, and int4
 * halves inference cost.
 *
 * Expected shape (paper): 610 leads peak TOPS (160 vs 73/34/24) at
 * 65 W; FSD-style systolic arrays lose utilization on small nets.
 */

#include <iostream>

#include "baseline/systolic.hh"
#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/auto_soc.hh"

using namespace ascend;

int
main()
{
    soc::AutoSoc soc610;

    bench::banner("Table 9: automotive SoC PPA");
    TextTable t("modelled | paper");
    t.header({"metric", "Xavier", "Tesla FSD", "EyeQ5", "Ascend 610",
              "610 modelled"});
    t.row({"Peak perf (TOPS int8)", "34", "73", "24", "160",
           TextTable::num(soc610.peakOpsInt8() / 1e12, 0)});
    t.row({"Power (W)", "30", "100", "10", "65",
           TextTable::num(soc610.config().tdpWatts, 0)});
    t.row({"Area (mm2)", "350", "260", "-", "401",
           TextTable::num(soc610.config().dieMm2, 0)});
    t.row({"Process (nm)", "12", "14", "7", "7", "7"});
    t.print(std::cout);
    std::cout << "int4 peak: "
              << TextTable::num(soc610.peakOpsInt4() / 1e12, 0)
              << " TOPS (Section 3.3 low-precision mode)\n";

    // Multi-model perception frame: the paper's comprehensive-decision
    // setup runs several networks concurrently, one per core.
    const auto resnet =
        graph::toNetwork(graph::zoo::resnet50Graph(1, DataType::Int8));
    const auto mobilenet =
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1, DataType::Int8));
    const double frame_ms = soc610.frameLatencySeconds(
        {&resnet, &resnet, &mobilenet, &mobilenet}) * 1e3;
    std::cout << "\nMulti-model frame (2x ResNet50 + 2x MobileNetV2, "
                 "int8, incl. DVPP): "
              << TextTable::num(frame_ms, 2) << " ms -> "
              << TextTable::num(1e3 / frame_ms, 0) << " fps\n";

    // Small-network utilization: the systolic bubbles claim.
    bench::banner("Section 6.3 claim: systolic bubbles on small "
                  "networks");
    baseline::SystolicArray fsd(baseline::fsdLike());
    TextTable u("MAC utilization on batch-1 perception nets");
    u.header({"network", "FSD-like 96x96 systolic util %",
              "Ascend cube util % (610 core)"});
    runtime::SimSession session(soc610.coreConfig());
    auto cube_util = [&](const model::Network &net) {
        Flops flops = 0;
        Cycles busy = 0;
        for (const auto &run : session.runInference(net)) {
            flops += run.result.totalFlops;
            busy += run.result.pipe(isa::Pipe::Cube).busyCycles;
        }
        const auto shape =
            soc610.coreConfig().cubeShapeFor(DataType::Int8);
        return busy ? 100.0 * double(flops) /
                          (double(busy) * shape.flopsPerCycle())
                    : 0.0;
    };
    for (const auto *net : {&resnet, &mobilenet}) {
        const auto r = fsd.runInference(*net);
        u.row({net->name, TextTable::num(100 * r.utilization, 1),
               TextTable::num(cube_util(*net), 1)});
    }
    u.print(std::cout);
    std::cout << "(paper: FSD 'suffers from massive bubbles in pipeline "
                 "during processing\n small-scale neural networks')\n";

    // SLAM on the cube-less Vector Core (Section 3.3).
    bench::banner("Section 3.3: SLAM front-end on the Vector Core");
    const auto slam = graph::zoo::slamFrontend(2048);
    const double slam_ms = soc610.slamLatencySeconds(slam) * 1e3;
    std::cout << "stereo + feature sort/match + quaternion pose + "
                 "clustering + LP: "
              << TextTable::num(slam_ms, 2) << " ms/frame ("
              << TextTable::num(1e3 / slam_ms, 0)
              << " Hz localization loop) on one Vector Core\n"
              << "(sorting / stereo / quaternion / clustering / LP are "
                 "the Section 3.3 vector-unit\n micro-architecture "
                 "extensions)\n";
    return 0;
}
