/**
 * @file
 * The DAG zoo networks: ResNet50, MobileNetV2, BERT, VGG16 and the
 * gesture CNN.
 */

#include "graph/zoo_graphs.hh"

#include "common/logging.hh"

namespace ascend {
namespace graph {
namespace zoo {

namespace {

using model::ActKind;
using model::Layer;

/** conv + batchnorm (+ optional ReLU); returns the output tensor. */
TensorId
convBnRelu(Graph &g, const std::string &name, TensorId x,
           unsigned batch, unsigned in_c, unsigned spatial,
           unsigned out_c, unsigned kernel, unsigned stride,
           unsigned pad, bool relu, DataType dt)
{
    Layer conv = Layer::conv2d(name, batch, in_c, spatial, spatial,
                               out_c, kernel, stride, pad, dt);
    const unsigned out_sp = conv.outH();
    const std::uint64_t vol =
        std::uint64_t(batch) * out_c * out_sp * out_sp;
    TensorId t = g.addLayer(conv, {x});
    t = g.addLayer(Layer::batchNorm(name + ".bn", vol, dt), {t});
    if (relu)
        t = g.addLayer(
            Layer::activation(name + ".relu", vol, ActKind::Relu, dt),
            {t});
    return t;
}

/** One ResNet bottleneck with its residual edge made explicit. */
TensorId
bottleneck(Graph &g, const std::string &name, TensorId x,
           unsigned batch, unsigned in_c, unsigned mid_c,
           unsigned out_c, unsigned spatial, unsigned stride,
           DataType dt, unsigned &out_sp)
{
    TensorId t = convBnRelu(g, name + ".conv1", x, batch, in_c,
                            spatial, mid_c, 1, 1, 0, true, dt);
    // ResNet v1.5 strides in the 3x3 convolution.
    t = convBnRelu(g, name + ".conv2", t, batch, mid_c, spatial,
                   mid_c, 3, stride, 1, true, dt);
    const unsigned sp2 = (spatial + 2 - 3) / stride + 1;
    t = convBnRelu(g, name + ".conv3", t, batch, mid_c, sp2, out_c,
                   1, 1, 0, false, dt);
    TensorId shortcut = x;
    if (stride != 1 || in_c != out_c)
        shortcut = convBnRelu(g, name + ".down", x, batch, in_c,
                              spatial, out_c, 1, stride, 0, false, dt);
    const std::uint64_t vol = std::uint64_t(batch) * out_c * sp2 * sp2;
    t = g.addResidualAdd(name + ".add", t, shortcut);
    t = g.addLayer(
        Layer::activation(name + ".relu", vol, ActKind::Relu, dt),
        {t});
    out_sp = sp2;
    return t;
}

std::uint64_t
volume(unsigned batch, unsigned c, unsigned sp)
{
    return std::uint64_t(batch) * c * sp * sp;
}

/** batchnorm (+ optional ReLU6) chain link. */
TensorId
bnAct(Graph &g, const std::string &name, TensorId x, std::uint64_t vol,
      bool relu6, DataType dt)
{
    TensorId t =
        g.addLayer(Layer::batchNorm(name + ".bn", vol, dt), {x});
    if (relu6)
        t = g.addLayer(Layer::activation(name + ".relu6", vol,
                                         ActKind::Relu6, dt),
                       {t});
    return t;
}

/** One MobileNetV2 inverted residual with explicit skip edge. */
TensorId
invertedResidual(Graph &g, const std::string &name, TensorId x,
                 unsigned batch, unsigned in_c, unsigned out_c,
                 unsigned spatial, unsigned stride, unsigned expand,
                 DataType dt, unsigned &out_sp)
{
    const unsigned mid_c = in_c * expand;
    unsigned sp = spatial;
    TensorId t = x;
    if (expand != 1) {
        t = g.addLayer(Layer::conv2d(name + ".expand", batch, in_c,
                                     sp, sp, mid_c, 1, 1, 0, dt),
                       {t});
        t = bnAct(g, name + ".expand", t, volume(batch, mid_c, sp),
                  true, dt);
    }
    Layer dw = Layer::depthwiseConv2d(name + ".dw", batch, mid_c, sp,
                                      sp, 3, stride, 1, dt);
    sp = dw.outH();
    t = g.addLayer(dw, {t});
    t = bnAct(g, name + ".dw", t, volume(batch, mid_c, sp), true, dt);

    t = g.addLayer(Layer::conv2d(name + ".project", batch, mid_c, sp,
                                 sp, out_c, 1, 1, 0, dt),
                   {t});
    t = bnAct(g, name + ".project", t, volume(batch, out_c, sp),
              false, dt);

    if (stride == 1 && in_c == out_c)
        t = g.addResidualAdd(name + ".add", t, x);
    out_sp = sp;
    return t;
}

} // anonymous namespace

Graph
resnet50Graph(unsigned batch, DataType dt)
{
    simAssert(batch > 0, "batch must be positive");
    Graph g;
    g.name = "resnet50";
    TensorId t =
        g.addInput("input", std::uint64_t(batch) * 3 * 224 * 224, dt);

    t = convBnRelu(g, "conv1", t, batch, 3, 224, 64, 7, 2, 3, true,
                   dt); // 112
    Layer pool = Layer::pool2d("maxpool", batch, 64, 112, 112, 3, 2, dt);
    pool.padH = pool.padW = 1;
    unsigned sp = pool.outH(); // 56
    t = g.addLayer(pool, {t});

    struct StageSpec { unsigned blocks, mid, out, stride; };
    static const StageSpec stages[] = {
        {3, 64, 256, 1},
        {4, 128, 512, 2},
        {6, 256, 1024, 2},
        {3, 512, 2048, 2},
    };
    unsigned in_c = 64;
    int stage_idx = 2;
    for (const StageSpec &s : stages) {
        for (unsigned b = 0; b < s.blocks; ++b) {
            const std::string name = "res" + std::to_string(stage_idx) +
                                     "." + std::to_string(b);
            const unsigned stride = (b == 0) ? s.stride : 1;
            t = bottleneck(g, name, t, batch, in_c, s.mid, s.out, sp,
                           stride, dt, sp);
            in_c = s.out;
        }
        ++stage_idx;
    }

    t = g.addLayer(
        Layer::pool2d("avgpool", batch, in_c, sp, sp, sp, sp, dt),
        {t});
    t = g.addLayer(Layer::linear("fc", batch, in_c, 1000, dt), {t});
    g.markOutput(t);
    return g;
}

Graph
vgg16Graph(unsigned batch, DataType dt)
{
    simAssert(batch > 0, "batch must be positive");
    Graph g;
    g.name = "vgg16";
    TensorId t =
        g.addInput("input", std::uint64_t(batch) * 3 * 224 * 224, dt);

    struct Group { unsigned convs, channels; };
    static const Group groups[] = {
        {2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512},
    };
    unsigned sp = 224;
    unsigned in_c = 3;
    int gi = 1;
    for (const Group &group : groups) {
        for (unsigned c = 0; c < group.convs; ++c) {
            const std::string name = "conv" + std::to_string(gi) +
                                     "_" + std::to_string(c + 1);
            t = convBnRelu(g, name, t, batch, in_c, sp,
                           group.channels, 3, 1, 1, true, dt);
            in_c = group.channels;
        }
        Layer pool = Layer::pool2d("pool" + std::to_string(gi), batch,
                                   in_c, sp, sp, 2, 2, dt);
        sp = pool.outH();
        t = g.addLayer(pool, {t});
        ++gi;
    }

    const std::uint64_t flat = std::uint64_t(in_c) * sp * sp;
    t = g.addLayer(Layer::linear("fc6", batch, flat, 4096, dt), {t});
    t = g.addLayer(Layer::activation("fc6.relu",
                                     std::uint64_t(batch) * 4096,
                                     ActKind::Relu, dt),
                   {t});
    t = g.addLayer(Layer::linear("fc7", batch, 4096, 4096, dt), {t});
    t = g.addLayer(Layer::activation("fc7.relu",
                                     std::uint64_t(batch) * 4096,
                                     ActKind::Relu, dt),
                   {t});
    t = g.addLayer(Layer::linear("fc8", batch, 4096, 1000, dt), {t});
    g.markOutput(t);
    return g;
}

Graph
mobilenetV2Graph(unsigned batch, DataType dt)
{
    simAssert(batch > 0, "batch must be positive");
    Graph g;
    g.name = "mobilenet_v2";
    TensorId t =
        g.addInput("input", std::uint64_t(batch) * 3 * 224 * 224, dt);

    Layer stem =
        Layer::conv2d("conv0", batch, 3, 224, 224, 32, 3, 2, 1, dt);
    unsigned sp = stem.outH(); // 112
    t = g.addLayer(stem, {t});
    t = bnAct(g, "conv0", t, volume(batch, 32, sp), true, dt);

    struct BlockSpec { unsigned t, c, n, s; };
    static const BlockSpec specs[] = {
        {1, 16, 1, 1},
        {6, 24, 2, 2},
        {6, 32, 3, 2},
        {6, 64, 4, 2},
        {6, 96, 3, 1},
        {6, 160, 3, 2},
        {6, 320, 1, 1},
    };
    unsigned in_c = 32;
    int bi = 1;
    for (const BlockSpec &spec : specs) {
        for (unsigned i = 0; i < spec.n; ++i) {
            const std::string name = "block" + std::to_string(bi++);
            const unsigned stride = (i == 0) ? spec.s : 1;
            t = invertedResidual(g, name, t, batch, in_c, spec.c, sp,
                                 stride, spec.t, dt, sp);
            in_c = spec.c;
        }
    }

    t = g.addLayer(Layer::conv2d("conv_last", batch, in_c, sp, sp,
                                 1280, 1, 1, 0, dt),
                   {t});
    t = bnAct(g, "conv_last", t, volume(batch, 1280, sp), true, dt);
    t = g.addLayer(
        Layer::pool2d("avgpool", batch, 1280, sp, sp, sp, sp, dt),
        {t});
    t = g.addLayer(Layer::linear("fc", batch, 1280, 1000, dt), {t});
    g.markOutput(t);
    return g;
}

Graph
gestureNetGraph(unsigned batch)
{
    simAssert(batch > 0, "batch must be positive");
    const DataType dt = DataType::Int8; // Ascend-Tiny is int8-only
    Graph g;
    g.name = "gesture_net";
    TensorId t =
        g.addInput("input", std::uint64_t(batch) * 3 * 96 * 96, dt);

    struct ConvSpec { unsigned out_c, kernel, stride; };
    static const ConvSpec specs[] = {
        {8, 5, 2}, {16, 3, 1}, {32, 3, 2}, {64, 3, 2}, {64, 3, 2},
    };
    unsigned sp = 96;
    unsigned in_c = 3; // RGB input
    int ci = 1;
    for (const ConvSpec &spec : specs) {
        const std::string name = "conv" + std::to_string(ci++);
        Layer conv = Layer::conv2d(name, batch, in_c, sp, sp,
                                   spec.out_c, spec.kernel,
                                   spec.stride, spec.kernel / 2, dt);
        sp = conv.outH();
        t = g.addLayer(conv, {t});
        t = bnAct(g, name, t, volume(batch, spec.out_c, sp), true, dt);
        in_c = spec.out_c;
    }

    t = g.addLayer(
        Layer::pool2d("avgpool", batch, in_c, sp, sp, sp, sp, dt),
        {t});
    t = g.addLayer(Layer::linear("fc", batch, in_c, 8, dt), {t});
    g.markOutput(t);
    return g;
}

Graph
bertGraph(const std::string &name, unsigned batch, unsigned seq_len,
          unsigned hidden, unsigned layers, unsigned heads,
          unsigned ffn, DataType dt)
{
    simAssert(batch > 0 && seq_len > 0 && hidden > 0, "bad BERT dims");
    simAssert(hidden % heads == 0, "hidden must divide by heads");
    const std::uint64_t tokens = std::uint64_t(batch) * seq_len;
    const unsigned head_dim = hidden / heads;

    Graph g;
    g.name = name;
    TensorId x = g.addInput("tokens", tokens * hidden, dt);

    // Embedding lookup is memory-bound gather work on the vector unit.
    x = g.addLayer(Layer::elementwise("embed", tokens * hidden, dt),
                   {x});
    x = g.addLayer(Layer::layerNorm("embed.ln", tokens, hidden, dt),
                   {x});

    for (unsigned l = 0; l < layers; ++l) {
        const std::string p = "enc" + std::to_string(l);
        // Fused QKV projection, then an explicit split into the three
        // heads' operands; the split lowers to no layer.
        TensorId qkv = g.addLayer(
            Layer::linear(p + ".qkv", tokens, hidden, 3ull * hidden,
                          dt),
            {x});
        const std::vector<TensorId> qkv_parts =
            g.addSplit(p + ".qkv.split", qkv, 3);
        // Attention scores per head: (S x dh) * (dh x S); K rides in
        // as a true second operand instead of phantom "weights".
        TensorId t = g.addLayer(
            Layer::batchedMatmul(p + ".scores",
                                 std::uint64_t(batch) * heads,
                                 seq_len, head_dim, seq_len, dt),
            {qkv_parts[0], qkv_parts[1]});
        t = g.addLayer(
            Layer::softmax(p + ".softmax",
                           std::uint64_t(batch) * heads * seq_len,
                           seq_len, dt),
            {t});
        // Context: (S x S) * (S x dh), V as the second operand.
        t = g.addLayer(
            Layer::batchedMatmul(p + ".context",
                                 std::uint64_t(batch) * heads,
                                 seq_len, seq_len, head_dim, dt),
            {t, qkv_parts[2]});
        t = g.addLayer(
            Layer::linear(p + ".proj", tokens, hidden, hidden, dt),
            {t});
        t = g.addResidualAdd(p + ".add1", t, x);
        TensorId ln1 = g.addLayer(
            Layer::layerNorm(p + ".ln1", tokens, hidden, dt), {t});

        t = g.addLayer(
            Layer::linear(p + ".ffn1", tokens, hidden, ffn, dt),
            {ln1});
        t = g.addLayer(Layer::activation(p + ".gelu", tokens * ffn,
                                         ActKind::Gelu, dt),
                       {t});
        t = g.addLayer(
            Layer::linear(p + ".ffn2", tokens, ffn, hidden, dt), {t});
        t = g.addResidualAdd(p + ".add2", t, ln1);
        x = g.addLayer(
            Layer::layerNorm(p + ".ln2", tokens, hidden, dt), {t});
    }

    // The pooler reads only each sample's CLS token: slice it off the
    // final hidden states (unequal split; the rest stays unconsumed).
    TensorId cls = x;
    if (seq_len > 1) {
        const std::uint64_t cls_elems = std::uint64_t(batch) * hidden;
        cls = g.addSplit("pooler.slice", x,
                         {cls_elems, tokens * hidden - cls_elems})[0];
    }
    cls = g.addLayer(Layer::linear("pooler", batch, hidden, hidden, dt),
                     {cls});
    g.markOutput(cls);
    return g;
}

Graph
bertBaseGraph(unsigned batch, unsigned seq_len, DataType dt)
{
    return bertGraph("bert_base", batch, seq_len, 768, 12, 12, 3072,
                     dt);
}

Graph
bertLargeGraph(unsigned batch, unsigned seq_len, DataType dt)
{
    return bertGraph("bert_large", batch, seq_len, 1024, 24, 16, 4096,
                     dt);
}

} // namespace zoo
} // namespace graph
} // namespace ascend
