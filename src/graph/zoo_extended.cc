/**
 * @file
 * Extended model zoo: the remaining Table 1 workload families —
 * MaskRCNN-style detection (Ascend / smart city), Wide & Deep
 * recommendation and an LSTM language model (Ascend-Max training),
 * and the SLAM front-end task mix the automotive Vector Core runs
 * (Section 3.3). These are chains, so they build model::Network
 * directly; no caller needs their wiring as a graph.
 */

#include "common/logging.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

namespace ascend {
namespace graph {
namespace zoo {

namespace {

using model::ActKind;
using model::Layer;
using model::Network;

void
addConvBnRelu(Network &net, const std::string &name, unsigned batch,
              unsigned in_c, unsigned spatial, unsigned out_c,
              unsigned kernel, unsigned stride, unsigned pad, DataType dt)
{
    Layer conv = Layer::conv2d(name, batch, in_c, spatial, spatial, out_c,
                               kernel, stride, pad, dt);
    const std::uint64_t vol =
        std::uint64_t(batch) * out_c * conv.outH() * conv.outW();
    net.add(conv);
    net.add(Layer::batchNorm(name + ".bn", vol, dt));
    net.add(Layer::activation(name + ".relu", vol, ActKind::Relu, dt));
}

} // anonymous namespace

Network
maskRcnn(unsigned batch, DataType dt)
{
    simAssert(batch > 0, "batch must be positive");
    // ResNet50 backbone...
    Network net = toNetwork(resnet50Graph(batch, dt));
    net.name = "mask_rcnn";
    // ...minus the classification head (avgpool + fc).
    net.layers.pop_back();
    net.layers.pop_back();

    // FPN: lateral 1x1 convolutions on C2..C5 plus 3x3 smoothing.
    struct Level { unsigned channels, spatial; };
    static const Level levels[] = {
        {256, 56}, {512, 28}, {1024, 14}, {2048, 7},
    };
    for (const Level &lv : levels) {
        const std::string p = "fpn.p" + std::to_string(lv.spatial);
        net.add(Layer::conv2d(p + ".lateral", batch, lv.channels,
                              lv.spatial, lv.spatial, 256, 1, 1, 0, dt));
        net.add(Layer::conv2d(p + ".smooth", batch, 256, lv.spatial,
                              lv.spatial, 256, 3, 1, 1, dt));
        // Top-down upsample + add.
        net.add(Layer::elementwise(
            p + ".add",
            std::uint64_t(batch) * 256 * lv.spatial * lv.spatial, dt));
    }

    // RPN over the largest level: objectness + box regression, then
    // proposal NMS (a Table 2 "CV operator" on the vector unit).
    net.add(Layer::conv2d("rpn.conv", batch, 256, 56, 56, 256,
                          3, 1, 1, dt));
    net.add(Layer::conv2d("rpn.cls", batch, 256, 56, 56, 3, 1, 1, 0, dt));
    net.add(Layer::conv2d("rpn.reg", batch, 256, 56, 56, 12,
                          1, 1, 0, dt));
    const std::uint64_t anchors = std::uint64_t(batch) * 3 * 56 * 56;
    net.add(Layer::cvOp("rpn.nms", anchors * 5, 14.0, dt)); // ~log2 sort

    // RoiAlign for 512 proposals at 7x7x256.
    const std::uint64_t roi_elems =
        std::uint64_t(batch) * 512 * 7 * 7 * 256;
    net.add(Layer::cvOp("roi_align", roi_elems, 4.0, dt)); // bilinear

    // Box head: two FC layers + classifier/regressor.
    const std::uint64_t rois = std::uint64_t(batch) * 512;
    net.add(Layer::linear("box.fc1", rois, 7 * 7 * 256, 1024, dt));
    net.add(Layer::activation("box.fc1.relu", rois * 1024,
                              ActKind::Relu, dt));
    net.add(Layer::linear("box.fc2", rois, 1024, 1024, dt));
    net.add(Layer::activation("box.fc2.relu", rois * 1024,
                              ActKind::Relu, dt));
    net.add(Layer::linear("box.cls", rois, 1024, 81, dt));
    net.add(Layer::linear("box.reg", rois, 1024, 320, dt));

    // Mask head: four 3x3 convolutions + deconv + mask predictor over
    // 100 kept RoIs. The RoI dimension folds into the batch.
    const unsigned kept = 100 * batch;
    for (int i = 1; i <= 4; ++i)
        addConvBnRelu(net, "mask.conv" + std::to_string(i), kept, 256,
                      14, 256, 3, 1, 1, dt);
    addConvBnRelu(net, "mask.deconv", kept, 256, 28, 256, 3, 1, 1, dt);
    net.add(Layer::conv2d("mask.pred", kept, 256, 28, 28, 81,
                          1, 1, 0, dt));
    return net;
}

Network
wideDeep(unsigned batch, DataType dt)
{
    simAssert(batch > 0, "batch must be positive");
    Network net;
    net.name = "wide_and_deep";
    // 26 categorical features gathered from embedding tables: a
    // memory-bound gather the vector unit performs.
    const unsigned features = 26;
    const unsigned embed_dim = 32;
    net.add(Layer::cvOp("embed.gather",
                        std::uint64_t(batch) * features * embed_dim,
                        2.0, dt));
    // Wide part: a single sparse linear over the crossed features.
    net.add(Layer::linear("wide", batch, 1024, 1, dt));
    // Deep part: the canonical 1024-512-256 MLP.
    unsigned in_dim = features * embed_dim + 13; // + dense features
    for (unsigned width : {1024u, 512u, 256u}) {
        const std::string name = "deep.fc" + std::to_string(width);
        net.add(Layer::linear(name, batch, in_dim, width, dt));
        net.add(Layer::activation(name + ".relu",
                                  std::uint64_t(batch) * width,
                                  ActKind::Relu, dt));
        in_dim = width;
    }
    net.add(Layer::linear("head", batch, in_dim + 1, 1, dt));
    net.add(Layer::activation("sigmoid", batch, ActKind::Sigmoid, dt));
    return net;
}

Network
lstm(unsigned batch, unsigned seq_len, unsigned input_dim,
     unsigned hidden, unsigned layers, DataType dt)
{
    simAssert(batch > 0 && seq_len > 0 && hidden > 0, "bad LSTM dims");
    Network net;
    net.name = "lstm";
    for (unsigned l = 0; l < layers; ++l) {
        const unsigned in_dim = l == 0 ? input_dim : hidden;
        for (unsigned t = 0; t < seq_len; ++t) {
            const std::string p = "l" + std::to_string(l) + ".t" +
                                  std::to_string(t);
            // Fused input and recurrent projections to the 4 gates.
            net.add(Layer::linear(p + ".x", batch, in_dim,
                                  4ull * hidden, dt));
            net.add(Layer::linear(p + ".h", batch, hidden,
                                  4ull * hidden, dt));
            // Gate nonlinearities + cell update (sigmoid/tanh mix).
            net.add(Layer::cvOp(p + ".gates",
                                std::uint64_t(batch) * 4 * hidden,
                                3.0, dt));
        }
    }
    net.add(Layer::linear("proj", std::uint64_t(batch) * seq_len, hidden,
                          input_dim, dt));
    return net;
}

Network
siameseTracker(unsigned batch, DataType dt)
{
    simAssert(batch > 0, "batch must be positive");
    Network net;
    net.name = "siamese_tracker";
    // Shared AlexNet-ish backbone, run on the 127x127 template and
    // the 255x255 search region (weights shared, compute doubled).
    struct Branch { const char *name; unsigned input; };
    static const Branch branches[] = {
        {"template", 127}, {"search", 255},
    };
    for (const Branch &br : branches) {
        unsigned sp = br.input;
        unsigned in_c = 3;
        struct ConvSpec { unsigned out_c, kernel, stride; };
        static const ConvSpec specs[] = {
            {96, 11, 2}, {256, 5, 1}, {384, 3, 1}, {384, 3, 1},
            {256, 3, 1},
        };
        int ci = 1;
        for (const ConvSpec &spec : specs) {
            const std::string name = std::string(br.name) + ".conv" +
                                     std::to_string(ci++);
            addConvBnRelu(net, name, batch, in_c, sp, spec.out_c,
                          spec.kernel, spec.stride, 0, dt);
            sp = (sp - spec.kernel) / spec.stride + 1;
            if (ci == 2 || ci == 3) { // pool after conv1/conv2
                Layer pool = Layer::pool2d(name + ".pool", batch,
                                           spec.out_c, sp, sp, 3, 2, dt);
                sp = pool.outH();
                net.add(pool);
            }
            in_c = spec.out_c;
        }
    }
    // Depthwise cross-correlation: the search feature map correlated
    // with the template kernel, per channel (a CV op on the vector
    // unit), then a 1x1 box/score head.
    const std::uint64_t corr =
        std::uint64_t(batch) * 256 * 17 * 17;
    net.add(Layer::cvOp("xcorr", corr, 36.0, dt)); // 6x6 template taps
    net.add(Layer::conv2d("head.cls", batch, 256, 17, 17, 10,
                          1, 1, 0, dt));
    net.add(Layer::conv2d("head.reg", batch, 256, 17, 17, 20,
                          1, 1, 0, dt));
    return net;
}

Network
pointNet(unsigned batch, unsigned points, DataType dt)
{
    simAssert(batch > 0 && points > 0, "bad pointnet dims");
    Network net;
    net.name = "pointnet";
    const std::uint64_t rows = std::uint64_t(batch) * points;
    // Per-point shared MLPs are (B*N) x C GEMMs.
    unsigned in_dim = 3;
    for (unsigned width : {64u, 64u, 128u, 1024u}) {
        const std::string name = "mlp" + std::to_string(width);
        net.add(Layer::linear(name, rows, in_dim, width, dt));
        net.add(Layer::batchNorm(name + ".bn", rows * width, dt));
        net.add(Layer::activation(name + ".relu", rows * width,
                                  ActKind::Relu, dt));
        in_dim = width;
    }
    // Symmetric max aggregation over points (a reduction CV op).
    net.add(Layer::cvOp("maxpool.points", rows * 1024 / points, 8.0,
                        dt));
    // Classifier head.
    net.add(Layer::linear("fc1", batch, 1024, 512, dt));
    net.add(Layer::activation("fc1.relu",
                              std::uint64_t(batch) * 512,
                              ActKind::Relu, dt));
    net.add(Layer::linear("fc2", batch, 512, 40, dt));
    return net;
}

Network
slamFrontend(unsigned points, DataType dt)
{
    simAssert(points > 0, "points must be positive");
    Network net;
    net.name = "slam_frontend";
    // The Section 3.3 Vector Core task mix: stereo matching, feature
    // sort, quaternion pose chains, clustering and a small LP solve.
    const std::uint64_t px = 1280ull * 720;
    net.add(Layer::cvOp("stereo.sad", px, 64.0, dt)); // disparity range
    net.add(Layer::cvOp("feature.response", px, 6.0, dt));
    net.add(Layer::cvOp("feature.sort", points,
                        16.0, dt)); // bitonic ~log^2(n)
    net.add(Layer::cvOp("descriptor.match",
                        std::uint64_t(points) * 32, 8.0, dt));
    net.add(Layer::cvOp("pose.quaternion", std::uint64_t(points) * 4,
                        6.0, dt));
    // General (quaternion) matrix work maps to small GEMMs.
    net.add(Layer::batchedMatmul("pose.jacobian", points, 4, 4, 4, dt));
    net.add(Layer::cvOp("cluster.kmeans", std::uint64_t(points) * 8,
                        12.0, dt));
    net.add(Layer::cvOp("lp.solve", 4096, 24.0, dt));
    return net;
}

} // namespace zoo
} // namespace graph
} // namespace ascend
