/**
 * @file
 * Paper-table conformance suite: re-derives Tables 3, 5, 6, 7, 8 and
 * 9 of the paper through the same library calls the bench binaries
 * use, and asserts every cell against the tolerance-annotated golden
 * in tests/golden/paper_tables.txt.
 *
 * Golden format, one cell per line:
 *     <cell-name> <expected-value> <relative-tolerance>
 * Config-derived cells carry a near-exact tolerance (1e-9); modelled
 * and simulated cells carry 2% so deliberate recalibration does not
 * need a golden churn for every ULP. Failures print a per-cell delta,
 * never a blob diff.
 *
 * Regenerate after an intentional model change with:
 *     ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_paper_conformance
 * and review the resulting diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/unit_model.hh"
#include "baseline/cpu.hh"
#include "baseline/simt.hh"
#include "baseline/systolic.hh"
#include "cluster/collective.hh"
#include "common/atomic_file.hh"
#include "common/field.hh"
#include "common/golden.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "soc/auto_soc.hh"
#include "soc/mobile_soc.hh"
#include "soc/training_soc.hh"

namespace ascend {
namespace {

/** Near-exact: the cell is pure configuration arithmetic. */
constexpr double kTolConfig = 1e-9;
/** Modelled/simulated: allow small deliberate recalibrations. */
constexpr double kTolModel = 0.02;

struct Cell
{
    std::string name;
    double value = 0;
    double relTol = kTolModel;
};

std::string
goldenPath()
{
    return std::string(ASCEND_GOLDEN_DIR) + "/paper_tables.txt";
}

// ------------------------------------------------- derivations

/** Table 3: PPA of the scalar/vector/cube units at 7 nm. */
void
deriveTable3(std::vector<Cell> &cells)
{
    using arch::TechNode;
    const auto cfg = arch::makeCoreConfig(arch::CoreVersion::Max);
    const auto scalar = arch::modelScalar(cfg.clockGhz, TechNode::N7);
    const auto vec = arch::modelVector(cfg.vectorWidthBytes,
                                       cfg.clockGhz, TechNode::N7);
    const auto cube =
        arch::modelCube(cfg.cube, cfg.clockGhz, TechNode::N7);
    cells.push_back({"t3.scalar_gflops", scalar.peakFlops / 1e9});
    cells.push_back({"t3.vector_gflops", vec.peakFlops / 1e9});
    cells.push_back({"t3.cube_gflops", cube.peakFlops / 1e9});
    cells.push_back({"t3.vector_power_w", vec.powerW});
    cells.push_back({"t3.cube_power_w", cube.powerW});
    cells.push_back({"t3.scalar_area_mm2", scalar.areaMm2});
    cells.push_back({"t3.vector_area_mm2", vec.areaMm2});
    cells.push_back({"t3.cube_area_mm2", cube.areaMm2});
    cells.push_back(
        {"t3.vector_tflops_per_w", vec.perfPerWatt() / 1e12});
    cells.push_back({"t3.cube_tflops_per_w", cube.perfPerWatt() / 1e12});
    cells.push_back(
        {"t3.vector_tflops_per_mm2", vec.perfPerArea() / 1e12});
    cells.push_back(
        {"t3.cube_tflops_per_mm2", cube.perfPerArea() / 1e12});
    cells.push_back({"t3.cube_vs_vector_perf_per_area",
                     cube.perfPerArea() / vec.perfPerArea()});
    cells.push_back({"t3.cube_vs_vector_perf_per_watt",
                     cube.perfPerWatt() / vec.perfPerWatt()});
}

/** Table 5: key architecture parameters per core version. */
void
deriveTable5(std::vector<Cell> &cells)
{
    const struct
    {
        arch::CoreVersion version;
        const char *key;
    } versions[] = {
        {arch::CoreVersion::Max, "max"},
        {arch::CoreVersion::Std, "std"},
        {arch::CoreVersion::Mini, "mini"},
        {arch::CoreVersion::Lite, "lite"},
        {arch::CoreVersion::Tiny, "tiny"},
    };
    for (const auto &v : versions) {
        const auto c = arch::makeCoreConfig(v.version);
        const std::string p = std::string("t5.") + v.key + ".";
        auto gbps = [&](Bytes per_cycle) {
            return double(per_cycle) * c.clockGhz;
        };
        cells.push_back({p + "clock_ghz", c.clockGhz, kTolConfig});
        cells.push_back({p + "cube_flops_per_cycle",
                         double(c.cube.flopsPerCycle()), kTolConfig});
        cells.push_back({p + "vector_bytes",
                         double(c.vectorWidthBytes), kTolConfig});
        cells.push_back(
            {p + "busa_gbps", gbps(c.busABytesPerCycle), kTolConfig});
        cells.push_back(
            {p + "busb_gbps", gbps(c.busBBytesPerCycle), kTolConfig});
        cells.push_back(
            {p + "busub_gbps", gbps(c.busUbBytesPerCycle), kTolConfig});
        cells.push_back(
            {p + "llc_gbps", gbps(c.busExtBytesPerCycle), kTolConfig});
    }
}

/** Table 6: memory/I/O wall bandwidth hierarchy of the 910. */
void
deriveTable6(std::vector<Cell> &cells)
{
    soc::TrainingSoc soc910;
    const auto &core = soc910.coreConfig();
    const auto &cfg = soc910.config();
    const double ghz = core.clockGhz * 1e9;
    const double cube_demand = soc910.peakFlopsFp16() * 8.0;
    const double l1 = double(core.busABytesPerCycle +
                             core.busBBytesPerCycle +
                             core.busUbBytesPerCycle) *
                      ghz * cfg.aiCores;
    cluster::ClusterConfig cl;
    cells.push_back({"t6.cube_demand_bps", cube_demand, kTolConfig});
    cells.push_back({"t6.l1_bps", l1, kTolConfig});
    cells.push_back({"t6.llc_bps", cfg.llcBandwidth, kTolConfig});
    cells.push_back(
        {"t6.hbm_bps", cfg.hbm.bandwidthBytesPerSec, kTolConfig});
    cells.push_back({"t6.intra_server_bps",
                     cl.server.hccsBytesPerSec +
                         cl.server.pcieBytesPerSec,
                     kTolConfig});
    cells.push_back({"t6.inter_server_bps", cl.netBytesPerSec,
                     kTolConfig});
    cells.push_back(
        {"t6.cube_to_hbm_ratio",
         cube_demand / cfg.hbm.bandwidthBytesPerSec, kTolConfig});
}

/** Table 7: training throughput, Ascend 910 vs V100/TPU/CPU models. */
void
deriveTable7(std::vector<Cell> &cells)
{
    soc::TrainingSoc soc910;
    const unsigned resnet_batch_per_core = 8;
    const unsigned resnet_batch =
        resnet_batch_per_core * soc910.config().aiCores;
    const auto resnet_core =
        graph::toNetwork(graph::zoo::resnet50Graph(resnet_batch_per_core));
    const auto resnet_step = soc910.trainStep(resnet_core);
    const double ascend_resnet = resnet_batch / resnet_step.seconds;

    const auto resnet_full =
        graph::toNetwork(graph::zoo::resnet50Graph(resnet_batch));
    baseline::GpuModel v100(baseline::v100Like());
    const double v100_imgs =
        resnet_batch / v100.runTraining(resnet_full).seconds;
    baseline::SystolicArray tpu(baseline::tpuV3Like());
    const double tpu_imgs =
        resnet_batch /
        tpu.runTraining(resnet_full).seconds(tpu.config().clockGhz);
    baseline::CpuModel cpu{baseline::CpuConfig{}};
    const double cpu_imgs =
        resnet_batch / cpu.trainingStepSeconds(resnet_full);

    const unsigned bert_batch_per_core = 2;
    const auto bert_core =
        graph::toNetwork(graph::zoo::bertLargeGraph(bert_batch_per_core, 128));
    const auto bert_step = soc910.trainStep(bert_core);
    const unsigned bert_batch_chip =
        bert_batch_per_core * soc910.config().aiCores;
    cluster::ClusterConfig one_server;
    one_server.servers = 1;
    cluster::TrainingJob bert_job;
    bert_job.stepSecondsPerChip = bert_step.seconds;
    bert_job.gradientBytes = bert_core.parameterBytes();
    bert_job.samplesPerChipStep = bert_batch_chip;
    const double ascend_bert_8p =
        cluster::throughputSamplesPerSec(bert_job, one_server, 8);

    const auto bert_full =
        graph::toNetwork(graph::zoo::bertLargeGraph(bert_batch_chip, 128));
    cluster::ClusterConfig dgx = one_server;
    dgx.server.hccsBytesPerSec = 45e9;
    cluster::TrainingJob v100_job;
    v100_job.stepSecondsPerChip = v100.runTraining(bert_full).seconds;
    v100_job.gradientBytes = bert_full.parameterBytes();
    v100_job.samplesPerChipStep = bert_batch_chip;
    const double v100_bert_8p =
        cluster::throughputSamplesPerSec(v100_job, dgx, 8);

    cells.push_back({"t7.ascend_peak_tflops_fp16",
                     soc910.peakFlopsFp16() / 1e12, kTolConfig});
    cells.push_back({"t7.ascend_resnet50_imgs_per_sec", ascend_resnet});
    cells.push_back({"t7.v100_resnet50_imgs_per_sec", v100_imgs});
    cells.push_back({"t7.tpu_resnet50_imgs_per_sec", tpu_imgs});
    cells.push_back({"t7.cpu_resnet50_imgs_per_sec", cpu_imgs});
    cells.push_back({"t7.ascend_bert_8p_seq_per_sec", ascend_bert_8p});
    cells.push_back({"t7.v100_bert_8p_seq_per_sec", v100_bert_8p});
    cells.push_back({"t7.ascend_vs_v100_resnet_speedup",
                     ascend_resnet / v100_imgs});
    cells.push_back(
        {"t7.ascend_vs_tpu_resnet_speedup", ascend_resnet / tpu_imgs});
    cells.push_back({"t7.ascend_vs_v100_bert_speedup",
                     ascend_bert_8p / v100_bert_8p});
}

/** Table 8: mobile NPU (Kirin 990 5G) PPA and MobileNetV2 latency. */
void
deriveTable8(std::vector<Cell> &cells)
{
    soc::MobileSoc kirin;
    cells.push_back(
        {"t8.peak_tops_int8", kirin.peakOpsInt8() / 1e12, kTolConfig});
    cells.push_back({"t8.tops_per_watt", kirin.powerEfficiency()});
    cells.push_back({"t8.npu_area_mm2", kirin.npuAreaMm2()});
    cells.push_back(
        {"t8.mobilenetv2_ms",
         kirin.liteLatencySeconds(
             graph::toNetwork(graph::zoo::mobilenetV2Graph(1))) *
             1e3});
    cells.push_back(
        {"t8.gesture_ms",
         kirin.tinyLatencySeconds(
             graph::toNetwork(graph::zoo::gestureNetGraph(1))) *
             1e3});
}

/** Table 9: automotive SoC PPA plus the systolic-bubble claim. */
void
deriveTable9(std::vector<Cell> &cells)
{
    soc::AutoSoc soc610;
    cells.push_back({"t9.peak_tops_int8",
                     soc610.peakOpsInt8() / 1e12, kTolConfig});
    cells.push_back({"t9.peak_tops_int4",
                     soc610.peakOpsInt4() / 1e12, kTolConfig});
    cells.push_back(
        {"t9.tdp_watts", soc610.config().tdpWatts, kTolConfig});
    cells.push_back(
        {"t9.die_mm2", soc610.config().dieMm2, kTolConfig});

    // Section 6.3 claim: batch-1 utilization, FSD-like systolic vs
    // the Ascend cube (610 core), on ResNet50 and MobileNetV2 int8.
    baseline::SystolicArray fsd(baseline::fsdLike());
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
    const auto resnet =
        graph::toNetwork(graph::zoo::resnet50Graph(1, DataType::Int8));
    const auto mobilenet =
        graph::toNetwork(graph::zoo::mobilenetV2Graph(1, DataType::Int8));
    cells.push_back({"t9.fsd_util_resnet50_pct",
                     100 * fsd.runInference(resnet).utilization});
    cells.push_back({"t9.fsd_util_mobilenetv2_pct",
                     100 * fsd.runInference(mobilenet).utilization});
    cells.push_back(
        {"t9.cube_util_resnet50_pct", cube_util(resnet)});
    cells.push_back(
        {"t9.cube_util_mobilenetv2_pct", cube_util(mobilenet)});
}

std::vector<Cell>
deriveAllCells()
{
    std::vector<Cell> cells;
    deriveTable3(cells);
    deriveTable5(cells);
    deriveTable6(cells);
    deriveTable7(cells);
    deriveTable8(cells);
    deriveTable9(cells);
    return cells;
}

// ------------------------------------------------- golden I/O

std::string
formatCell(const Cell &c)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %.12g %g", c.name.c_str(),
                  c.value, c.relTol);
    return buf;
}

struct GoldenCell
{
    double expected = 0;
    double relTol = 0;
};

bool
parseGolden(const std::string &text,
            std::map<std::string, GoldenCell> &out)
{
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        GoldenCell cell;
        if (!(ls >> name >> cell.expected >> cell.relTol))
            return false;
        out[name] = cell;
    }
    return true;
}

TEST(PaperConformance, TablesMatchGolden)
{
    const std::vector<Cell> cells = deriveAllCells();

    if (envValue<bool>("ASCEND_UPDATE_GOLDEN").value_or(false)) {
        std::string text =
            "# Paper-table conformance golden (Tables 3, 5, 6, 7, 8, "
            "9).\n"
            "# Format: <cell> <expected> <relative-tolerance>\n"
            "# Regenerate: ASCEND_UPDATE_GOLDEN=1 "
            "./build/tests/test_paper_conformance\n";
        for (const Cell &c : cells)
            text += formatCell(c) + "\n";
        ASSERT_TRUE(writeFileText(goldenPath(), text))
            << "cannot write " << goldenPath();
        GTEST_SKIP() << "golden regenerated at " << goldenPath()
                     << " (" << cells.size() << " cells)";
    }

    const std::optional<std::string> text = readFile(goldenPath());
    ASSERT_TRUE(text) << "missing golden " << goldenPath()
                      << "; regenerate with ASCEND_UPDATE_GOLDEN=1";
    std::map<std::string, GoldenCell> golden;
    ASSERT_TRUE(parseGolden(*text, golden))
        << "malformed golden " << goldenPath();

    // Per-cell comparison with a printed delta for every cell.
    std::set<std::string> seen;
    for (const Cell &c : cells) {
        seen.insert(c.name);
        const auto it = golden.find(c.name);
        if (it == golden.end()) {
            ADD_FAILURE() << "cell " << c.name
                          << " missing from golden; regenerate with "
                             "ASCEND_UPDATE_GOLDEN=1";
            continue;
        }
        const GoldenCell &g = it->second;
        const double denom =
            std::max(std::abs(g.expected), 1e-300);
        const double delta = (c.value - g.expected) / denom;
        std::printf("  %-38s expected %14.6g  actual %14.6g  "
                    "delta %+.3e (tol %g)\n",
                    c.name.c_str(), g.expected, c.value, delta,
                    g.relTol);
        EXPECT_LE(std::abs(delta), g.relTol)
            << c.name << ": expected " << g.expected << " got "
            << c.value;
    }
    for (const auto &kv : golden) {
        EXPECT_TRUE(seen.count(kv.first))
            << "golden cell " << kv.first
            << " is no longer derived; regenerate the golden";
    }
    EXPECT_EQ(cells.size(), golden.size());
}

} // anonymous namespace
} // namespace ascend
