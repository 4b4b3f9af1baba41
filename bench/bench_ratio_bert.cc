/**
 * @file
 * Figures 4 and 5: cube/vector execution-time ratio per operator for
 * BERT inference and training on the Ascend-Max configuration
 * (cube 8192 FLOPS/cycle, vector 256 B).
 *
 * Expected shape (paper): inference ratios are >> 1 for most
 * operators; training shifts work to the vector unit so ratios drop
 * but stay > 1 for most operators.
 */

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

int
runBench()
{
    const auto config = arch::makeCoreConfig(arch::CoreVersion::Max);
    runtime::SimSession session(config);

    // Four encoder layers are enough to show the repeating series
    // (all 24 encoders of BERT-Large are identical).
    const auto net = graph::toNetwork(graph::zoo::bertGraph(
        "bert_large_4l", /*batch=*/1, /*seq_len=*/384, /*hidden=*/1024,
        /*layers=*/4, /*heads=*/16, /*ffn=*/4096));

    bench::banner("Figure 4: cube/vector ratio, BERT inference "
                  "(cube 8192 FLOPS/cy, vector 256 B)");
    const auto inf_runs = session.runInference(net);
    bench::printRatioSeries("BERT inference",
                            runtime::fusionGroups(inf_runs));

    bench::banner("Figure 5: cube/vector ratio, BERT training "
                  "(same configuration)");
    const auto tra_runs = session.runTraining(net);
    bench::printRatioSeries(
        "BERT training (fwd+bwd per operator)",
        runtime::fusionGroupsTraining(tra_runs));
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
