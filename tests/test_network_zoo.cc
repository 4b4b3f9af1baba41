/**
 * @file
 * Tests for the network container, the backward expansion, and the
 * model zoo: layer counts, total FLOPs and parameter volumes must
 * match the published figures for each architecture, and every zoo
 * network must reproduce its frozen row in tests/golden/zoo_networks.txt.
 */

#include <cstdlib>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/atomic_file.hh"
#include "common/golden.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "runtime/sim_session.hh"
#include "soc/training_soc.hh"

namespace ascend {
namespace model {
namespace {

TEST(Network, TotalsAccumulate)
{
    Network net;
    net.add(Layer::linear("a", 2, 3, 4));
    net.add(Layer::elementwise("e", 100));
    EXPECT_EQ(net.size(), 2u);
    EXPECT_EQ(net.totalFlops(), 2ull * 2 * 3 * 4 + 100);
    EXPECT_EQ(net.totalWeightBytes(), 3u * 4 * 2);
    EXPECT_GE(net.maxActivationBytes(), 200u);
}

TEST(Backward, GemmExpandsToDxDwUpdate)
{
    const Layer fwd = Layer::linear("fc", 32, 256, 512);
    const auto bwd = backwardLayers(fwd);
    ASSERT_EQ(bwd.size(), 3u);
    std::uint64_t m, k, n;
    bwd[0].lowerToGemm(m, k, n); // dX = dY * W^T
    EXPECT_EQ(m, 32u);
    EXPECT_EQ(k, 512u);
    EXPECT_EQ(n, 256u);
    bwd[1].lowerToGemm(m, k, n); // dW = X^T * dY
    EXPECT_EQ(m, 256u);
    EXPECT_EQ(k, 32u);
    EXPECT_EQ(n, 512u);
    EXPECT_EQ(bwd[2].kind, LayerKind::Elementwise);
    EXPECT_EQ(bwd[2].elems, 256u * 512);
    // Backward GEMM FLOPs are exactly 2x forward.
    EXPECT_EQ(bwd[0].flops() + bwd[1].flops(), 2 * fwd.flops());
}

TEST(Backward, ConvBackwardCarriesRawOverrides)
{
    const Layer fwd = Layer::conv2d("c", 2, 64, 56, 56, 64, 3, 1, 1);
    const auto bwd = backwardLayers(fwd);
    ASSERT_GE(bwd.size(), 2u);
    // dX output and dW input collapse to the raw activation volume.
    EXPECT_EQ(bwd[0].outputBytes(), fwd.inputBytes());
    EXPECT_EQ(bwd[1].inputBytes(), fwd.inputBytes());
    // Without the override these would be 9x larger (im2col).
    EXPECT_LT(9 * bwd[1].inputBytes(),
              10 * bytesOf(fwd.dtype, 2ull * 56 * 56 * 64 * 9));
}

TEST(Backward, VectorLayersExpandToVectorWork)
{
    EXPECT_EQ(backwardLayers(Layer::batchNorm("bn", 100)).size(), 2u);
    EXPECT_EQ(backwardLayers(Layer::softmax("s", 2, 8)).size(), 1u);
    EXPECT_EQ(backwardLayers(Layer::elementwise("e", 5)).size(), 1u);
    EXPECT_EQ(
        backwardLayers(Layer::pool2d("p", 1, 8, 8, 8, 2, 2)).size(), 1u);
    const auto dw = backwardLayers(
        Layer::depthwiseConv2d("d", 1, 8, 16, 16, 3, 1, 1));
    EXPECT_EQ(dw.size(), 3u);
    EXPECT_EQ(dw[0].kind, LayerKind::DepthwiseConv2d);
}

TEST(Backward, TrainingStepsCoverEveryLayer)
{
    const Network net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    const auto steps = trainingSteps(net);
    EXPECT_EQ(steps.size(), net.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i].fwd.name, net.layers[i].name);
        EXPECT_FALSE(steps[i].bwd.empty());
    }
}

TEST(Zoo, Resnet50Shape)
{
    const Network net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    // 53 convolutions (incl. downsamples), the FC, pools and the
    // vector layers in between.
    unsigned convs = 0;
    for (const Layer &l : net.layers)
        if (l.kind == LayerKind::Conv2d)
            ++convs;
    EXPECT_EQ(convs, 53u);
    // Published: ~4.1 GMACs = ~8.2 GFLOPs forward.
    EXPECT_NEAR(double(net.totalFlops()), 8.2e9, 1.0e9);
    // Published: ~25.5 M parameters.
    EXPECT_NEAR(double(net.totalWeightBytes()) / 2, 25.5e6, 2e6);
}

TEST(Zoo, Resnet50SpatialChainEndsAt7x7)
{
    const Network net = graph::toNetwork(graph::zoo::resnet50Graph(1));
    const Layer *last_conv = nullptr;
    for (const Layer &l : net.layers)
        if (l.kind == LayerKind::Conv2d)
            last_conv = &l;
    ASSERT_NE(last_conv, nullptr);
    EXPECT_EQ(last_conv->outH(), 7u);
    EXPECT_EQ(last_conv->outC, 2048u);
}

TEST(Zoo, MobilenetV2Shape)
{
    const Network net = graph::toNetwork(graph::zoo::mobilenetV2Graph(1));
    unsigned dw = 0;
    for (const Layer &l : net.layers)
        if (l.kind == LayerKind::DepthwiseConv2d)
            ++dw;
    EXPECT_EQ(dw, 17u); // one per inverted-residual block
    // Published: ~300 MMACs = ~0.6 GFLOPs.
    EXPECT_NEAR(double(net.totalFlops()), 0.62e9, 0.12e9);
    // Published: ~3.5 M parameters.
    EXPECT_NEAR(double(net.totalWeightBytes()) / 2, 3.5e6, 0.7e6);
}

TEST(Zoo, Vgg16Shape)
{
    const Network net = graph::toNetwork(graph::zoo::vgg16Graph(1));
    unsigned convs = 0;
    for (const Layer &l : net.layers)
        if (l.kind == LayerKind::Conv2d)
            ++convs;
    EXPECT_EQ(convs, 13u);
    // Published: ~15.5 GMACs = ~31 GFLOPs.
    EXPECT_NEAR(double(net.totalFlops()), 31e9, 2e9);
    // Published: ~138 M parameters.
    EXPECT_NEAR(double(net.totalWeightBytes()) / 2, 138e6, 8e6);
}

TEST(Zoo, BertLargeShape)
{
    const Network net =
        graph::toNetwork(graph::zoo::bertLargeGraph(1, 384));
    // Encoder-side parameters (~12.6 M per layer x 24).
    EXPECT_NEAR(double(net.parameterBytes()) / 2, 3.03e8, 0.2e8);
    unsigned softmaxes = 0;
    for (const Layer &l : net.layers)
        if (l.kind == LayerKind::Softmax)
            ++softmaxes;
    EXPECT_EQ(softmaxes, 24u);
    // Forward FLOPs for seq 384 are in the tens of GFLOPs.
    EXPECT_GT(net.totalFlops(), 5e10);
}

TEST(Zoo, BertBaseIsSmallerThanLarge)
{
    const Network base =
        graph::toNetwork(graph::zoo::bertBaseGraph(1, 128));
    const Network large =
        graph::toNetwork(graph::zoo::bertLargeGraph(1, 128));
    EXPECT_LT(base.totalWeightBytes(), large.totalWeightBytes());
    EXPECT_LT(base.totalFlops(), large.totalFlops());
}

TEST(Zoo, BertBatchScalesTokens)
{
    const Network b1 = graph::toNetwork(graph::zoo::bertLargeGraph(1, 128));
    const Network b4 = graph::toNetwork(graph::zoo::bertLargeGraph(4, 128));
    EXPECT_NEAR(double(b4.totalFlops()), 4.0 * double(b1.totalFlops()),
                0.05 * double(b4.totalFlops()));
    // True parameters are batch-invariant; attention K/V operands
    // (counted by totalWeightBytes) are not.
    EXPECT_EQ(b1.parameterBytes(), b4.parameterBytes());
    EXPECT_LT(b1.totalWeightBytes(), b4.totalWeightBytes());
}

TEST(Zoo, GestureNetIsInt8AndTiny)
{
    const Network net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    for (const Layer &l : net.layers)
        EXPECT_EQ(l.dtype, DataType::Int8) << l.name;
    EXPECT_LT(net.totalFlops(), 50e6);   // always-on budget
    EXPECT_LT(net.totalWeightBytes(), 200 * kKiB);
}

TEST(Zoo, AllNetworksHavePositiveVolumesEverywhere)
{
    for (const Network &net :
         {graph::toNetwork(graph::zoo::resnet50Graph(2)),
          graph::toNetwork(graph::zoo::mobilenetV2Graph(2)),
          graph::toNetwork(graph::zoo::vgg16Graph(1)),
          graph::toNetwork(graph::zoo::bertBaseGraph(1, 64)),
          graph::toNetwork(graph::zoo::gestureNetGraph(2))}) {
        for (const Layer &l : net.layers) {
            EXPECT_GT(l.flops(), 0u) << net.name << ":" << l.name;
            EXPECT_GT(l.inputBytes(), 0u) << net.name << ":" << l.name;
            EXPECT_GT(l.outputBytes(), 0u) << net.name << ":" << l.name;
        }
    }
}

TEST(ZooDeath, ZeroBatchIsRejected)
{
    EXPECT_DEATH(graph::zoo::resnet50Graph(0), "batch");
}

/** Batch scaling property across the CNN zoo. */
class ZooBatchScaling : public testing::TestWithParam<unsigned>
{
};

TEST_P(ZooBatchScaling, FlopsScaleLinearly)
{
    const unsigned b = GetParam();
    const double one =
        double(graph::toNetwork(graph::zoo::resnet50Graph(1)).totalFlops());
    const double many =
        double(graph::toNetwork(graph::zoo::resnet50Graph(b)).totalFlops());
    EXPECT_NEAR(many, b * one, 0.01 * many);
}

INSTANTIATE_TEST_SUITE_P(Batches, ZooBatchScaling,
                         testing::Values(2u, 4u, 8u));

// ------------------------------------------------------- zoo golden

/**
 * One zoo network at one (batch, sequence, dtype) point that
 * ascend_cli or a bench builds it at. Rows are frozen in
 * tests/golden/zoo_networks.txt; regenerate after an intentional
 * change with
 *     ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_network_zoo
 * and review the diff like any other code change.
 */
struct ZooPoint
{
    std::string family; ///< which ZooGolden test owns the row
    std::string label;  ///< unique row key, the row's first token
    std::function<Network()> build;
    bool simulate; ///< false: layer list only (BERT-Large is bench-sized)
};

const std::vector<ZooPoint> &
zooPoints()
{
    using graph::toNetwork;
    namespace gz = graph::zoo;
    const DataType i8 = DataType::Int8;
    static const std::vector<ZooPoint> points = {
        {"resnet50", "resnet50/b1/fp16",
         [] { return toNetwork(gz::resnet50Graph(1)); }, true},
        {"resnet50", "resnet50/b1/int8",
         [=] { return toNetwork(gz::resnet50Graph(1, i8)); }, true},
        {"resnet50", "resnet50/b2/fp16",
         [] { return toNetwork(gz::resnet50Graph(2)); }, true},
        {"resnet50", "resnet50/b4/fp16",
         [] { return toNetwork(gz::resnet50Graph(4)); }, true},
        {"resnet50", "resnet50/b6/fp16",
         [] { return toNetwork(gz::resnet50Graph(6)); }, true},
        {"resnet50", "resnet50/b8/fp16",
         [] { return toNetwork(gz::resnet50Graph(8)); }, true},
        {"resnet50", "resnet50/b16/fp16",
         [] { return toNetwork(gz::resnet50Graph(16)); }, true},
        {"resnet50", "resnet50/b256/fp16",
         [] { return toNetwork(gz::resnet50Graph(256)); }, true},
        {"mobilenet_v2", "mobilenet_v2/b1/fp16",
         [] { return toNetwork(gz::mobilenetV2Graph(1)); }, true},
        {"mobilenet_v2", "mobilenet_v2/b1/int8",
         [=] { return toNetwork(gz::mobilenetV2Graph(1, i8)); }, true},
        {"mobilenet_v2", "mobilenet_v2/b2/fp16",
         [] { return toNetwork(gz::mobilenetV2Graph(2)); }, true},
        {"mobilenet_v2", "mobilenet_v2/b8/fp16",
         [] { return toNetwork(gz::mobilenetV2Graph(8)); }, true},
        {"mobilenet_v2", "mobilenet_v2/b16/fp16",
         [] { return toNetwork(gz::mobilenetV2Graph(16)); }, true},
        {"vgg16", "vgg16/b1/fp16",
         [] { return toNetwork(gz::vgg16Graph(1)); }, true},
        {"gesture_net", "gesture_net/b1/int8",
         [] { return toNetwork(gz::gestureNetGraph(1)); }, true},
        {"gesture_net", "gesture_net/b8/int8",
         [] { return toNetwork(gz::gestureNetGraph(8)); }, true},
        {"bert", "bert_base/b1/s128/fp16",
         [] { return toNetwork(gz::bertBaseGraph(1, 128)); }, true},
        {"bert", "bert_base/b2/s128/fp16",
         [] { return toNetwork(gz::bertBaseGraph(2, 128)); }, true},
        {"bert", "bert_base/b8/s384/fp16",
         [] { return toNetwork(gz::bertBaseGraph(8)); }, true},
        {"bert", "bert_encoder/b1/s384/fp16",
         [] {
             return toNetwork(gz::bertGraph("bert_encoder", 1, 384, 1024,
                                            1, 16, 4096));
         },
         true},
        {"bert", "bert_large_2l/b1/s384/fp16",
         [] {
             return toNetwork(gz::bertGraph("bert_large_2l", 1, 384, 1024,
                                            2, 16, 4096));
         },
         true},
        {"bert", "bert_large_4l/b1/s384/fp16",
         [] {
             return toNetwork(gz::bertGraph("bert_large_4l", 1, 384, 1024,
                                            4, 16, 4096));
         },
         true},
        {"bert_large", "bert_large/b1/s128/fp16",
         [] { return toNetwork(gz::bertLargeGraph(1, 128)); }, false},
        {"bert_large", "bert_large/b2/s128/fp16",
         [] { return toNetwork(gz::bertLargeGraph(2, 128)); }, false},
        {"bert_large", "bert_large/b64/s128/fp16",
         [] { return toNetwork(gz::bertLargeGraph(64, 128)); }, false},
        {"bert_large", "bert_large/b1/s384/fp16",
         [] { return toNetwork(gz::bertLargeGraph(1, 384)); }, false},
        {"extended", "mask_rcnn/b1/fp16",
         [] { return gz::maskRcnn(1); }, true},
        {"extended", "wide_and_deep/b1/fp16",
         [] { return gz::wideDeep(1); }, true},
        {"extended", "lstm/b1/s32/fp16",
         [] { return gz::lstm(1, 32, 512, 1024, 2); }, true},
        {"extended", "siamese_tracker/b1/fp16",
         [] { return gz::siameseTracker(1); }, true},
        {"extended", "pointnet/b1/p1024/fp16",
         [] { return gz::pointNet(1, 1024); }, true},
        {"extended", "slam_frontend/p2048/fp16",
         [] { return gz::slamFrontend(2048); }, true},
    };
    return points;
}

/**
 * One golden row: layer count, FNV-1a over the ordered (name, shape
 * fingerprint) list, FLOP and parameter totals, and exact inference
 * cycles on the 910's core with a private cache and no surrogate.
 */
std::string
zooRow(const ZooPoint &p)
{
    const Network net = p.build();
    std::string ids;
    for (const Layer &l : net.layers)
        ids += l.name + '\0' + runtime::fingerprint(l) + '\n';
    std::uint64_t hash = 14695981039346656037ull;
    for (const unsigned char c : ids) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    std::ostringstream os;
    os << p.label << " layers=" << net.size() << " hash=" << std::hex
       << std::setw(16) << std::setfill('0') << hash << std::dec
       << " flops=" << net.totalFlops()
       << " params=" << net.parameterBytes() << " cycles=";
    if (!p.simulate) {
        os << '-';
        return os.str();
    }
    const runtime::SimSession session(
        soc::TrainingSoc().coreConfig(), {},
        std::make_shared<runtime::SimCache>(), {},
        surrogate::SurrogateOptions{});
    os << session.inferenceResult(net).totalCycles;
    return os.str();
}

std::string
zooGoldenPath()
{
    return std::string(ASCEND_GOLDEN_DIR) + "/zoo_networks.txt";
}

/** Golden rows keyed by label (comment lines skipped). */
std::map<std::string, std::string>
readZooGolden()
{
    std::map<std::string, std::string> rows;
    const std::optional<std::string> text = readFile(zooGoldenPath());
    if (!text)
        return rows;
    std::istringstream is(normalizeGolden(*text));
    std::string line;
    while (std::getline(is, line))
        if (!line.empty() && line[0] != '#')
            rows[line.substr(0, line.find(' '))] = line;
    return rows;
}

/**
 * Check every row of @p family against the golden, or rewrite those
 * rows in place under ASCEND_UPDATE_GOLDEN.
 */
void
checkZooFamily(const std::string &family)
{
    std::map<std::string, std::string> golden = readZooGolden();
    const char *env = std::getenv("ASCEND_UPDATE_GOLDEN");
    const bool update = env && *env && std::string(env) != "0";
    for (const ZooPoint &p : zooPoints()) {
        if (p.family != family)
            continue;
        const std::string row = zooRow(p);
        if (update)
            golden[p.label] = row;
        else
            EXPECT_EQ(golden[p.label], row) << "regenerate with "
                                               "ASCEND_UPDATE_GOLDEN=1";
    }
    if (!update)
        return;
    std::string text =
        "# Zoo network identity: layers, FNV-1a over (name, shape)\n"
        "# fingerprints, FLOPs, parameter bytes, inference cycles on\n"
        "# the 910 core ('-' = layer list only).\n"
        "# Regenerate: ASCEND_UPDATE_GOLDEN=1 "
        "./build/tests/test_network_zoo\n";
    for (const ZooPoint &p : zooPoints())
        if (golden.count(p.label))
            text += golden[p.label] + "\n";
    ASSERT_TRUE(writeFileText(zooGoldenPath(), text))
        << "cannot write " << zooGoldenPath();
    GTEST_SKIP() << "golden rows regenerated for " << family;
}

TEST(ZooGolden, ResNet50) { checkZooFamily("resnet50"); }
TEST(ZooGolden, MobileNetV2) { checkZooFamily("mobilenet_v2"); }
TEST(ZooGolden, Vgg16) { checkZooFamily("vgg16"); }
TEST(ZooGolden, GestureNet) { checkZooFamily("gesture_net"); }
TEST(ZooGolden, BertBase) { checkZooFamily("bert"); }
TEST(ZooGolden, BertLargeLayerList) { checkZooFamily("bert_large"); }
TEST(ZooGolden, ExtendedZoo) { checkZooFamily("extended"); }

} // anonymous namespace
} // namespace model
} // namespace ascend
