/**
 * @file
 * Figure 8: cube/vector execution-time ratio per operator for the
 * always-on gesture-inference CNN on the Ascend-Tiny configuration
 * (cube 1024 int8 OPS/cycle, vector 32 B).
 *
 * Expected shape (paper): the ratio is greater than 1 for all
 * operators, validating the Tiny configuration.
 */

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

int
main()
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Tiny));

    bench::banner("Figure 8: cube/vector ratio, Gesture NN inference "
                  "(cube 1024 int8 OPS/cy, vector 32 B)");
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    bench::printRatioSeries(
        "Gesture NN b=1 int8",
        runtime::fusionGroups(session.runInference(net)));
    return 0;
}
