/**
 * @file
 * Section 4.1: LLC capacity scaling with 3D-SRAM. The paper reports
 * that growing the on-chip LLC from 96 MB to 720 MB improves ResNet50
 * training by 1.71x and BERT by 1.51x. This bench sweeps the LLC
 * capacity of the training SoC and replays the training step's tensor
 * traffic through the set-associative cache model.
 *
 * Expected shape (paper): monotonic improvement with capacity,
 * ResNet50 gaining more than BERT, in the 1.5-1.7x band at 720 MB.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/training_soc.hh"

using namespace ascend;

namespace {

void
sweep(const char *name, const model::Network &per_core_net,
      const char *paper_note)
{
    bench::banner(std::string("LLC capacity sweep: ") + name);
    TextTable t(name);
    t.header({"LLC (MiB)", "step (ms)", "LLC hit %", "HBM traffic",
              "speedup vs 96 MiB"});
    // Each capacity point builds its own TrainingSoc (and its own LLC
    // replay state), so the sweep runs through the pool; rows print
    // in capacity order from the index-stable results.
    const std::vector<Bytes> mibs = {96, 192, 360, 720};
    const auto steps = runtime::parallelMap(mibs, [&](Bytes mib) {
        soc::TrainingSocConfig cfg;
        // Section 4.1 evaluates the *next-generation* training device
        // (3D-SRAM stacking): roughly twice the 910's compute with
        // the same HBM subsystem, which is what makes the LLC the
        // first-order knob.
        cfg.name = "ascend-next-gen";
        cfg.aiCores = 64;
        cfg.llcCapacity = mib * kMiB;
        soc::TrainingSoc soc(cfg);
        return soc.trainStep(per_core_net);
    });
    const double base_sec = steps.front().seconds;
    const double sec720 = steps.back().seconds;
    for (std::size_t i = 0; i < mibs.size(); ++i) {
        const auto &step = steps[i];
        t.row({TextTable::num(std::uint64_t(mibs[i])),
               TextTable::num(step.seconds * 1e3, 2),
               TextTable::num(100 * step.llcHitRate(), 1),
               formatBytes(step.hbmTrafficBytes),
               TextTable::num(base_sec / step.seconds, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "720 MiB speedup: "
              << TextTable::num(base_sec / sec720, 2) << "x  " << paper_note
              << "\n";
}

} // anonymous namespace

int
runBench()
{
    sweep("ResNet50 training (global batch 256, next-gen device)",
          graph::toNetwork(graph::zoo::resnet50Graph(4)), "(paper: 1.71x)");
    sweep("BERT-Base training (global batch 128, seq 128)",
          graph::toNetwork(graph::zoo::bertBaseGraph(2, 128)),
          "(paper: 1.51x)");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
