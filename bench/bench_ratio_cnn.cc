/**
 * @file
 * Figures 6 and 7: cube/vector execution-time ratio per operator for
 * MobileNetV2 and ResNet50 inference on the 8192 FLOPS/cycle + 256 B
 * configuration (the paper profiles both on the big core to motivate
 * the Lite core's relatively wider vector unit).
 *
 * Expected shape (paper): most MobileNet operators fall between 0 and
 * 1 (vector-bound depthwise stages), while ResNet50's first operators
 * sit close to 1 and later ones well above it. The bench also re-runs
 * MobileNet on the tailored Ascend-Lite configuration (cube 2048,
 * vector 128 B) to show the ratio recovering.
 */

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

int
runBench()
{
    const auto max_cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    runtime::SimSession session(max_cfg);

    bench::banner("Figure 6: cube/vector ratio, MobileNetV2 inference "
                  "(cube 8192 FLOPS/cy, vector 256 B)");
    const auto mobilenet = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    bench::printRatioSeries(
        "MobileNetV2 b=1",
        runtime::fusionGroups(session.runInference(mobilenet)));

    bench::banner("Figure 7: cube/vector ratio, ResNet50 inference "
                  "(cube 8192 FLOPS/cy, vector 256 B)");
    const auto resnet = graph::toNetwork(graph::zoo::resnet50Graph(1));
    bench::printRatioSeries(
        "ResNet50 b=1",
        runtime::fusionGroups(session.runInference(resnet)));

    bench::banner("Section 2.4 check: MobileNetV2 on the tailored "
                  "Ascend-Lite core (cube 2048, vector 128 B)");
    runtime::SimSession lite(
        arch::makeCoreConfig(arch::CoreVersion::Lite));
    bench::printRatioSeries(
        "MobileNetV2 b=1 on Lite",
        runtime::fusionGroups(lite.runInference(mobilenet)));
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
