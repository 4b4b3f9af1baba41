/**
 * @file
 * Autonomous-driving scenario (paper Section 3.3): an Ascend 610
 * running a multi-model perception stack per camera frame, with DVPP
 * pre-processing, int8 inference, and MPAM protecting the
 * latency-critical model from bulk interference.
 */

#include <iostream>

#include "common/table.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/auto_soc.hh"

using namespace ascend;

int
main()
{
    soc::AutoSoc soc610;
    std::cout << "=== Ascend 610 autonomous-driving SoC ===\n"
              << "peak: "
              << TextTable::num(soc610.peakOpsInt8() / 1e12, 0)
              << " TOPS int8 / "
              << TextTable::num(soc610.peakOpsInt4() / 1e12, 0)
              << " TOPS int4 across " << soc610.config().aiCores
              << " cores\n\n";

    // Perception stack: detector + two trackers + lane model, all
    // int8, running concurrently on separate cores each frame.
    const auto detector =
        graph::toNetwork(graph::zoo::resnet50Graph(1, DataType::Int8));
    const auto tracker =
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1, DataType::Int8));
    // small int8 CNN
    const auto lane = graph::toNetwork(graph::zoo::gestureNetGraph(1));

    TextTable t("per-frame perception pipeline");
    t.header({"stage", "latency (ms)"});
    t.row({"DVPP pre-processing (resize + stitch)",
           TextTable::num(soc610.config().dvppFrameSeconds * 1e3, 2)});
    const double frame = soc610.frameLatencySeconds(
        {&detector, &tracker, &tracker, &lane});
    t.row({"multi-model inference (4 nets, 1/core)",
           TextTable::num((frame - soc610.config().dvppFrameSeconds) *
                              1e3, 2)});
    t.row({"end-to-end frame", TextTable::num(frame * 1e3, 2)});
    t.print(std::cout);
    std::cout << "sustained "
              << TextTable::num(1.0 / frame, 0)
              << " fps with one frame in flight\n\n";

    // Real-time protection: the detector's working set must survive
    // the mapping/SLAM tasks' bulk streaming (MPAM, Section 3.3).
    std::cout << "=== MPAM protection for the critical model ===\n";
    TextTable q;
    q.header({"configuration", "critical LLC hit %",
              "avg memory latency (ns)"});
    const auto off = soc610.qosExperiment(0);
    const auto on = soc610.qosExperiment(4);
    q.row({"shared LLC (MPAM off)",
           TextTable::num(100 * off.criticalHitRate, 1),
           TextTable::num(off.criticalAvgLatencyNs, 1)});
    q.row({"4 ways reserved (MPAM on)",
           TextTable::num(100 * on.criticalHitRate, 1),
           TextTable::num(on.criticalAvgLatencyNs, 1)});
    q.print(std::cout);

    const double worst_case_factor =
        off.criticalAvgLatencyNs / on.criticalAvgLatencyNs;
    std::cout << "MPAM cuts the critical model's memory latency "
              << TextTable::num(worst_case_factor, 1)
              << "x under interference, which is what keeps the "
                 "sensing->decision deadline.\n";
    return 0;
}
