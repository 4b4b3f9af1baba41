/**
 * @file
 * Figure 9: per-operator L1 memory bandwidth demand for BERT forward
 * and backward (training), MobileNetV2 and ResNet50 (inference),
 * profiled with unlimited L1 bus bandwidth on the 8192 FLOPS/cycle +
 * 256 B configuration.
 *
 * Expected shape (paper): read demand stays below 4096 bits/cycle and
 * write demand below 2048 bits/cycle on every operator, and MobileNet
 * shows the highest L1 demand of the three networks.
 */

#include <functional>

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

namespace {

/** The Max core with effectively infinite L1/UB bus width. */
arch::CoreConfig
unlimitedL1Config()
{
    auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    cfg.name = "ascend-max-unlimited-l1";
    cfg.busABytesPerCycle *= 1024;
    cfg.busBBytesPerCycle *= 1024;
    cfg.busUbBytesPerCycle *= 1024;
    return cfg;
}

double
seriesMaxRead(const std::vector<runtime::GroupProfile> &groups)
{
    double mx = 0;
    for (const auto &g : groups)
        mx = std::max(mx, g.l1ReadBitsPerCycle());
    return mx;
}

} // anonymous namespace

int
main()
{
    runtime::SimSession session(unlimitedL1Config());

    // The three profiles are independent network runs on one shared
    // session; produce them through the pool, print in figure order.
    const auto bert = graph::toNetwork(graph::zoo::bertGraph(
        "bert_large_2l", 1, 384, 1024, 2, 16, 4096));
    std::vector<std::function<std::vector<runtime::GroupProfile>()>>
        tasks = {
            [&] {
                return runtime::fusionGroupsTraining(
                    session.runTraining(bert));
            },
            [&] {
                return runtime::fusionGroups(
                    session.runInference(graph::toNetwork(
                        graph::zoo::mobilenetV2Graph(1))));
            },
            [&] {
                return runtime::fusionGroups(
                    session.runInference(graph::toNetwork(
                        graph::zoo::resnet50Graph(1))));
            },
        };
    const auto profiles = runtime::parallelMap(
        tasks,
        [](const std::function<std::vector<runtime::GroupProfile>()> &t) {
            return t();
        });
    const auto &bert_groups = profiles[0];
    const auto &mobile_groups = profiles[1];
    const auto &resnet_groups = profiles[2];

    bench::banner("Figure 9 (a): L1 bandwidth, BERT forward+backward");
    bench::printBandwidthSeries("BERT training", bert_groups);

    bench::banner("Figure 9 (b): L1 bandwidth, MobileNetV2 inference");
    bench::printBandwidthSeries("MobileNetV2", mobile_groups);

    bench::banner("Figure 9 (c): L1 bandwidth, ResNet50 inference");
    bench::printBandwidthSeries("ResNet50", resnet_groups);

    std::cout << "\nCross-network comparison of peak L1 read demand:\n"
              << "  MobileNetV2: "
              << TextTable::num(seriesMaxRead(mobile_groups), 0)
              << " bits/cycle\n  ResNet50:    "
              << TextTable::num(seriesMaxRead(resnet_groups), 0)
              << " bits/cycle\n  BERT:        "
              << TextTable::num(seriesMaxRead(bert_groups), 0)
              << " bits/cycle\n"
              << "(paper: MobileNet shows the highest L1 demand)\n";
    return 0;
}
