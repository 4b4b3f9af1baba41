/**
 * @file
 * Command-line driver for the simulator.
 *
 * Usage:
 *   ascend_cli [--core tiny|lite|mini|std|max|nextgen]
 *              [--net NAME] [--batch N] [--list]
 *              [--profile] [--ratios] [--train]
 *              [--trace FILE.json] [--disasm LAYER]
 *              [--density D [--structured]]
 *              [--config FILE] [--dump-config]
 *
 * Examples:
 *   ascend_cli --core lite --net mobilenet_v2 --ratios
 *   ascend_cli --core max --net bert_base --batch 2 --train --profile
 *   ascend_cli --core tiny --net gesture_net --trace t.json
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "arch/config_io.hh"
#include "common/error.hh"
#include "common/table.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "isa/verify.hh"
#include "obs/tracer.hh"
#include "runtime/sim_session.hh"

using namespace ascend;

namespace {

struct Options
{
    std::string core = "max";
    std::string net = "resnet50";
    unsigned batch = 1;
    bool list = false;
    bool profile = false;
    bool ratios = false;
    bool train = false;
    std::string traceFile;
    std::string disasmLayer;
    double density = 1.0;
    bool structured = false;
    std::string configFile;
    bool dumpConfig = false;
};

arch::CoreConfig
coreFor(const std::string &name)
{
    if (name == "tiny")
        return arch::makeCoreConfig(arch::CoreVersion::Tiny);
    if (name == "lite")
        return arch::makeCoreConfig(arch::CoreVersion::Lite);
    if (name == "mini")
        return arch::makeCoreConfig(arch::CoreVersion::Mini);
    if (name == "std")
        return arch::makeCoreConfig(arch::CoreVersion::Std);
    if (name == "max")
        return arch::makeCoreConfig(arch::CoreVersion::Max);
    if (name == "nextgen")
        return arch::makeNextGenCoreConfig();
    fatal("unknown core '%s' (tiny|lite|mini|std|max|nextgen)",
          name.c_str());
}

model::Network
netFor(const std::string &name, unsigned batch, DataType dt)
{
    using namespace graph::zoo;
    if (name == "resnet50")
        return graph::toNetwork(resnet50Graph(batch, dt));
    if (name == "mobilenet_v2")
        return graph::toNetwork(mobilenetV2Graph(batch, dt));
    if (name == "vgg16")
        return graph::toNetwork(vgg16Graph(batch, dt));
    if (name == "bert_base")
        return graph::toNetwork(bertBaseGraph(batch, 128, dt));
    if (name == "bert_large")
        return graph::toNetwork(bertLargeGraph(batch, 128, dt));
    if (name == "gesture_net")
        return graph::toNetwork(gestureNetGraph(batch));
    if (name == "mask_rcnn")
        return maskRcnn(batch, dt);
    if (name == "wide_and_deep")
        return wideDeep(batch, dt);
    if (name == "lstm")
        return lstm(batch, 32, 512, 1024, 2, dt);
    if (name == "siamese_tracker")
        return siameseTracker(batch, dt);
    if (name == "pointnet")
        return pointNet(batch, 1024, dt);
    if (name == "slam_frontend")
        return slamFrontend(2048, dt);
    fatal("unknown network '%s' (try --list)", name.c_str());
}

void
listNetworks()
{
    std::cout << "cores:    tiny lite mini std max nextgen\n"
              << "networks: resnet50 mobilenet_v2 vgg16 bert_base "
                 "bert_large gesture_net\n"
              << "          mask_rcnn wide_and_deep lstm "
                 "siamese_tracker pointnet slam_frontend\n";
}

Options
parse(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            fatal("%s needs a value", flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--core")
            opt.core = need(i, "--core");
        else if (a == "--net")
            opt.net = need(i, "--net");
        else if (a == "--batch")
            opt.batch = unsigned(std::stoul(need(i, "--batch")));
        else if (a == "--list")
            opt.list = true;
        else if (a == "--profile")
            opt.profile = true;
        else if (a == "--ratios")
            opt.ratios = true;
        else if (a == "--train")
            opt.train = true;
        else if (a == "--trace") {
            opt.traceFile = need(i, "--trace");
            if (!obs::kTraceCompiledIn)
                fatal("--trace needs the tracer, which this build "
                      "compiles out (ASCEND_OBS_TRACE=OFF)");
        } else if (a == "--disasm")
            opt.disasmLayer = need(i, "--disasm");
        else if (a == "--density")
            opt.density = std::stod(need(i, "--density"));
        else if (a == "--structured")
            opt.structured = true;
        else if (a == "--config")
            opt.configFile = need(i, "--config");
        else if (a == "--dump-config")
            opt.dumpConfig = true;
        else if (a == "--help" || a == "-h") {
            listNetworks();
            std::exit(0);
        } else {
            fatal("unknown flag '%s' (try --help)", a.c_str());
        }
    }
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (opt.list) {
        listNetworks();
        return 0;
    }

    auto cfg = coreFor(opt.core);
    if (!opt.configFile.empty()) {
        std::ifstream in(opt.configFile);
        if (!in)
            fatal("cannot open config file '%s'",
                  opt.configFile.c_str());
        try {
            cfg = arch::readConfig(in, cfg);
        } catch (const Error &e) {
            fatal("%s: %s", opt.configFile.c_str(), e.what());
        }
    }
    if (opt.dumpConfig) {
        arch::writeConfig(cfg, std::cout);
        return 0;
    }
    const DataType dt =
        cfg.supportsFp16 ? DataType::Fp16 : DataType::Int8;
    const auto net = netFor(opt.net, opt.batch, dt);

    compiler::CompileOptions copt;
    copt.sparsity.weightDensity = opt.density;
    copt.sparsity.structured = opt.structured;
    runtime::SimSession session(cfg, copt);

    std::cout << net.name << " (batch " << opt.batch << ", "
              << toString(dt) << ") on " << cfg.name << "\n";

    if (!opt.disasmLayer.empty()) {
        compiler::LayerCompiler lc(cfg, copt);
        for (const auto &layer : net.layers) {
            if (layer.name != opt.disasmLayer)
                continue;
            const auto prog = lc.compile(layer);
            const auto issues = isa::verifyProgram(prog);
            std::cout << isa::disassemble(prog, 48);
            std::cout << (issues.empty() ? "; verifier: clean\n"
                                         : "; verifier: ISSUES\n");
            return 0;
        }
        fatal("no layer named '%s' in %s", opt.disasmLayer.c_str(),
              net.name.c_str());
    }

    if (!opt.traceFile.empty()) {
        compiler::LayerCompiler lc(cfg, copt);
        core::CoreSim sim(cfg);
        // An ASCEND_TRACE trace pauses for this one and then records
        // the rest of the run.
        obs::Tracer &tracer = obs::Tracer::instance();
        const std::string envTrace =
            obs::Tracer::enabled() ? tracer.path() : "";
        tracer.start(opt.traceFile);
        for (const auto &layer : net.layers)
            sim.run(lc.compile(layer));
        const std::size_t events = tracer.spanCount();
        tracer.stop();
        if (!envTrace.empty())
            tracer.start(envTrace);
        std::cout << "wrote " << events << " events to "
                  << opt.traceFile << "\n";
    }

    const auto runs = session.runInference(net);
    const auto groups = opt.train
        ? runtime::fusionGroupsTraining(session.runTraining(net))
        : runtime::fusionGroups(runs);

    Cycles total = 0;
    for (const auto &g : groups)
        total += g.totalCycles;
    std::cout << (opt.train ? "training step: " : "inference: ")
              << total << " cycles = "
              << TextTable::num(double(total) / (cfg.clockGhz * 1e6), 3)
              << " ms at " << cfg.clockGhz << " GHz\n";

    if (opt.ratios || opt.profile) {
        TextTable t(opt.train ? "per-operator (fwd+bwd)"
                              : "per-operator");
        if (opt.profile)
            t.header({"operator", "cycles", "cube/vec", "cube %",
                      "vec %", "L1 rd bits/cy", "ext bytes"});
        else
            t.header({"operator", "cube/vec"});
        for (const auto &g : groups) {
            if (opt.profile) {
                t.row({g.name,
                       TextTable::num(std::uint64_t(g.totalCycles)),
                       TextTable::num(g.cubeVectorRatio(), 2),
                       TextTable::num(100.0 * g.cubeBusy /
                                          std::max<Cycles>(
                                              1, g.totalCycles), 1),
                       TextTable::num(100.0 * g.vectorBusy /
                                          std::max<Cycles>(
                                              1, g.totalCycles), 1),
                       TextTable::num(g.l1ReadBitsPerCycle(), 0),
                       formatBytes(g.extBytes)});
            } else {
                t.row({g.name, TextTable::num(g.cubeVectorRatio(), 2)});
            }
        }
        t.print(std::cout);
    }
    return 0;
}
