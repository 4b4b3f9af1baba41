/**
 * @file
 * Graph IR construction, validation, topological order and hashing.
 */

#include "graph/graph.hh"

#include <algorithm>
#include <queue>

#include "common/codec.hh"
#include "common/error.hh"
#include "common/field.hh"

namespace ascend {
namespace graph {

namespace {

/** Activation-input volume of a layer in elements. */
std::uint64_t
layerInputElems(const model::Layer &l)
{
    using model::LayerKind;
    switch (l.kind) {
      case LayerKind::Conv2d:
      case LayerKind::DepthwiseConv2d:
      case LayerKind::Pool2d:
        return std::uint64_t(l.batch) * l.inC * l.inH * l.inW;
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        return l.gemmM * l.gemmK * l.matmulCount;
      default:
        return l.elems;
    }
}

/** Second-operand volume when it is an activation edge (K/V). */
std::uint64_t
layerSecondOperandElems(const model::Layer &l)
{
    return l.gemmK * l.gemmN * l.matmulCount;
}

/** Output volume of a layer in elements. */
std::uint64_t
layerOutputElems(const model::Layer &l)
{
    using model::LayerKind;
    switch (l.kind) {
      case LayerKind::Conv2d:
      case LayerKind::DepthwiseConv2d:
      case LayerKind::Pool2d:
        return std::uint64_t(l.batch) * l.outC * l.outH() * l.outW();
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        return l.gemmM * l.gemmN * l.matmulCount;
      default:
        return l.elems;
    }
}

[[noreturn]] void
failShape(const std::string &node_name, OpKind op, const char *what)
{
    throwError(ErrorCode::GraphShapeMismatch, "node '%s' (%s): %s",
               node_name.c_str(), toString(op), what);
}

/**
 * Refuse a windowed layer (conv, depthwise, pool) with no output
 * shape, before layerOutputElems divides by its stride and subtracts
 * its kernel from the padded input. addLayer calls it before deriving
 * the output tensor, checkNodeShapes on every node validate() sees.
 */
void
checkWindow(const model::Layer &l, const std::string &node_name)
{
    if (l.kind != model::LayerKind::Conv2d &&
        l.kind != model::LayerKind::DepthwiseConv2d &&
        l.kind != model::LayerKind::Pool2d)
        return;
    const std::uint64_t padded_h = l.inH + 2 * std::uint64_t(l.padH);
    const std::uint64_t padded_w = l.inW + 2 * std::uint64_t(l.padW);
    if (l.strideH == 0 || l.strideW == 0)
        failShape(node_name, OpKind::Layer, "stride must be positive");
    if (l.kernelH > padded_h || l.kernelW > padded_w)
        failShape(node_name, OpKind::Layer,
                  "kernel is larger than its padded input");
}

/**
 * Shape agreement between one node and its tensors. Factored out so
 * the builders fail fast with exactly the message validate() would
 * produce on a graph whose members were edited after it was built.
 */
void
checkNodeShapes(const Graph &g, std::size_t ni)
{
    const Node &n = g.nodes[ni];
    auto in = [&](std::size_t i) -> const Tensor & {
        return g.tensors[n.inputs[i]];
    };
    auto out = [&](std::size_t i) -> const Tensor & {
        return g.tensors[n.outputs[i]];
    };
    auto fail = [&](const char *what) { failShape(n.name, n.op, what); };

    switch (n.op) {
      case OpKind::Layer: {
        const model::Layer &l = n.layer;
        if (n.inputs.empty() || n.inputs.size() > 2)
            fail("a layer node takes one or two inputs");
        if (n.outputs.size() != 1)
            fail("a layer node produces exactly one output");
        if (in(0).dtype != l.dtype)
            fail("input dtype differs from the layer dtype");
        checkWindow(l, n.name);
        if (in(0).elems != layerInputElems(l))
            fail("input volume differs from the layer's activation");
        if (n.inputs.size() == 2) {
            if (l.kind != model::LayerKind::Linear &&
                l.kind != model::LayerKind::BatchedMatmul)
                fail("only GEMM-like layers take a second operand");
            if (in(1).dtype != l.dtype)
                fail("second operand dtype differs from the layer");
            if (in(1).elems != layerSecondOperandElems(l))
                fail("second operand volume differs from k*n*count");
        }
        if (out(0).dtype != l.dtype ||
            out(0).elems != layerOutputElems(l))
            fail("output tensor disagrees with the layer's output");
        break;
      }
      case OpKind::ResidualAdd: {
        if (n.inputs.size() != 2)
            fail("residual add takes exactly two inputs");
        if (n.outputs.size() != 1)
            fail("residual add produces exactly one output");
        if (in(0).dtype != in(1).dtype || in(0).elems != in(1).elems)
            fail("residual operands must match in shape and dtype");
        if (out(0).dtype != in(0).dtype ||
            out(0).elems != in(0).elems)
            fail("residual output must mirror its operands");
        break;
      }
      case OpKind::Concat: {
        if (n.inputs.empty())
            fail("concat needs at least one input");
        if (n.outputs.size() != 1)
            fail("concat produces exactly one output");
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
            if (in(i).dtype != in(0).dtype)
                fail("concat inputs must share one dtype");
            sum += in(i).elems;
        }
        if (out(0).dtype != in(0).dtype || out(0).elems != sum)
            fail("concat output must sum its input volumes");
        break;
      }
      case OpKind::Split: {
        if (n.inputs.size() != 1)
            fail("split takes exactly one input");
        if (n.outputs.empty())
            fail("split needs at least one part");
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < n.outputs.size(); ++i) {
            if (out(i).dtype != in(0).dtype)
                fail("split parts must keep the input dtype");
            sum += out(i).elems;
        }
        if (sum != in(0).elems)
            fail("split parts must exactly cover the input");
        break;
      }
    }
    for (const TensorId t : n.outputs)
        if (g.tensors[t].elems == 0)
            fail("zero-element tensor");
}

} // anonymous namespace

const char *
toString(OpKind op)
{
    switch (op) {
      case OpKind::Layer:       return "layer";
      case OpKind::ResidualAdd: return "add";
      case OpKind::Concat:      return "concat";
      case OpKind::Split:       return "split";
    }
    return "?";
}

const Tensor &
Graph::checkedTensor(TensorId t, const char *who) const
{
    if (t >= tensors.size())
        throwError(ErrorCode::GraphInvalid,
                   "%s: tensor id %u out of range (graph '%s' has %zu)",
                   who, t, name.c_str(), tensors.size());
    return tensors[t];
}

TensorId
Graph::newTensor(const std::string &tensor_name, std::uint64_t elems,
                 DataType dt, int producer, unsigned slot)
{
    if (elems == 0)
        throwError(ErrorCode::GraphShapeMismatch,
                   "tensor '%s': zero elements", tensor_name.c_str());
    Tensor t;
    t.name = tensor_name;
    t.elems = elems;
    t.dtype = dt;
    t.producer = producer;
    t.producerSlot = slot;
    tensors.push_back(std::move(t));
    return TensorId(tensors.size() - 1);
}

TensorId
Graph::addInput(const std::string &tensor_name, std::uint64_t elems,
                DataType dt)
{
    return newTensor(tensor_name, elems, dt, -1, 0);
}

TensorId
Graph::addLayer(model::Layer layer, std::vector<TensorId> ins)
{
    for (const TensorId t : ins)
        checkedTensor(t, "addLayer");
    checkWindow(layer, layer.name);
    Node n;
    n.op = OpKind::Layer;
    n.name = layer.name;
    n.layer = std::move(layer);
    n.inputs = std::move(ins);
    const int ni = int(nodes.size());
    nodes.push_back(std::move(n));
    const TensorId out =
        newTensor(nodes.back().name + ":0",
                  layerOutputElems(nodes.back().layer),
                  nodes.back().layer.dtype, ni, 0);
    nodes.back().outputs.push_back(out);
    checkNodeShapes(*this, std::size_t(ni));
    return out;
}

TensorId
Graph::addResidualAdd(const std::string &node_name, TensorId a,
                      TensorId b)
{
    const Tensor &ta = checkedTensor(a, "addResidualAdd");
    checkedTensor(b, "addResidualAdd");
    Node n;
    n.op = OpKind::ResidualAdd;
    n.name = node_name;
    n.inputs = {a, b};
    const int ni = int(nodes.size());
    nodes.push_back(std::move(n));
    const TensorId out =
        newTensor(node_name + ":0", ta.elems, ta.dtype, ni, 0);
    nodes.back().outputs.push_back(out);
    checkNodeShapes(*this, std::size_t(ni));
    return out;
}

TensorId
Graph::addConcat(const std::string &node_name, std::vector<TensorId> ins)
{
    std::uint64_t sum = 0;
    DataType dt = DataType::Fp16;
    for (std::size_t i = 0; i < ins.size(); ++i) {
        const Tensor &t = checkedTensor(ins[i], "addConcat");
        if (i == 0)
            dt = t.dtype;
        sum += t.elems;
    }
    Node n;
    n.op = OpKind::Concat;
    n.name = node_name;
    n.inputs = std::move(ins);
    const int ni = int(nodes.size());
    nodes.push_back(std::move(n));
    const TensorId out = newTensor(node_name + ":0", sum, dt, ni, 0);
    nodes.back().outputs.push_back(out);
    checkNodeShapes(*this, std::size_t(ni));
    return out;
}

std::vector<TensorId>
Graph::addSplit(const std::string &node_name, TensorId in,
                const std::vector<std::uint64_t> &part_elems)
{
    const Tensor t = checkedTensor(in, "addSplit");
    Node n;
    n.op = OpKind::Split;
    n.name = node_name;
    n.inputs = {in};
    const int ni = int(nodes.size());
    nodes.push_back(std::move(n));
    std::vector<TensorId> outs;
    outs.reserve(part_elems.size());
    for (std::size_t i = 0; i < part_elems.size(); ++i) {
        const TensorId o =
            newTensor(node_name + ":" + std::to_string(i),
                      part_elems[i], t.dtype, ni, unsigned(i));
        nodes[ni].outputs.push_back(o);
        outs.push_back(o);
    }
    checkNodeShapes(*this, std::size_t(ni));
    return outs;
}

std::vector<TensorId>
Graph::addSplit(const std::string &node_name, TensorId in,
                unsigned parts)
{
    const Tensor &t = checkedTensor(in, "addSplit");
    if (parts == 0 || t.elems % parts != 0)
        throwError(ErrorCode::GraphShapeMismatch,
                   "split '%s': %llu elements do not divide into %u "
                   "parts",
                   node_name.c_str(),
                   static_cast<unsigned long long>(t.elems), parts);
    return addSplit(node_name, in,
                    std::vector<std::uint64_t>(parts, t.elems / parts));
}

void
Graph::markOutput(TensorId t)
{
    checkedTensor(t, "markOutput");
    outputs.push_back(t);
}

std::vector<std::size_t>
Graph::validate() const
{
    if (nodes.empty())
        throwError(ErrorCode::GraphInvalid, "graph '%s': empty",
                   name.c_str());
    // Edge sanity: every reference in range, every back-reference
    // agreeing with the node it points at.
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
        const Node &n = nodes[ni];
        for (const TensorId t : n.inputs)
            if (t >= tensors.size())
                throwError(ErrorCode::GraphInvalid,
                           "node '%s': dangling input tensor id %u",
                           n.name.c_str(), t);
        for (std::size_t s = 0; s < n.outputs.size(); ++s) {
            const TensorId t = n.outputs[s];
            if (t >= tensors.size())
                throwError(ErrorCode::GraphInvalid,
                           "node '%s': dangling output tensor id %u",
                           n.name.c_str(), t);
            const Tensor &tt = tensors[t];
            if (tt.producer != int(ni) || tt.producerSlot != s)
                throwError(ErrorCode::GraphInvalid,
                           "node '%s': output tensor '%s' does not "
                           "name it as producer",
                           n.name.c_str(), tt.name.c_str());
        }
    }
    for (std::size_t ti = 0; ti < tensors.size(); ++ti) {
        const Tensor &t = tensors[ti];
        if (t.elems == 0)
            throwError(ErrorCode::GraphShapeMismatch,
                       "tensor '%s': zero elements", t.name.c_str());
        if (t.producer >= 0) {
            if (std::size_t(t.producer) >= nodes.size())
                throwError(ErrorCode::GraphInvalid,
                           "tensor '%s': producer %d out of range",
                           t.name.c_str(), t.producer);
            const Node &p = nodes[std::size_t(t.producer)];
            if (t.producerSlot >= p.outputs.size() ||
                p.outputs[t.producerSlot] != TensorId(ti))
                throwError(ErrorCode::GraphInvalid,
                           "tensor '%s': producer '%s' does not list "
                           "it at slot %u",
                           t.name.c_str(), p.name.c_str(),
                           t.producerSlot);
        }
    }
    for (const TensorId t : outputs)
        if (t >= tensors.size())
            throwError(ErrorCode::GraphInvalid,
                       "graph '%s': dangling output tensor id %u",
                       name.c_str(), t);

    // Acyclicity (throws GraphInvalid naming a cycle member).
    std::vector<std::size_t> order = topoOrder();

    for (std::size_t ni = 0; ni < nodes.size(); ++ni)
        checkNodeShapes(*this, ni);
    return order;
}

std::vector<std::size_t>
Graph::topoOrder() const
{
    // Kahn's algorithm with a min-heap: the unique order that
    // dispatches the smallest ready node index first. Builders append
    // nodes in execution order, so for zoo graphs this is the layer
    // order frozen in the zoo golden.
    std::vector<unsigned> indegree(nodes.size(), 0);
    for (std::size_t ni = 0; ni < nodes.size(); ++ni)
        for (const TensorId t : nodes[ni].inputs)
            if (t < tensors.size() && tensors[t].producer >= 0)
                ++indegree[ni];
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<std::size_t>>
        ready;
    for (std::size_t ni = 0; ni < nodes.size(); ++ni)
        if (indegree[ni] == 0)
            ready.push(ni);

    // Consumers of each node, via its output tensors.
    std::vector<std::vector<std::size_t>> consumers(nodes.size());
    for (std::size_t ni = 0; ni < nodes.size(); ++ni)
        for (const TensorId t : nodes[ni].inputs)
            if (t < tensors.size() && tensors[t].producer >= 0)
                consumers[std::size_t(tensors[t].producer)].push_back(
                    ni);

    std::vector<std::size_t> order;
    order.reserve(nodes.size());
    while (!ready.empty()) {
        const std::size_t ni = ready.top();
        ready.pop();
        order.push_back(ni);
        for (const std::size_t c : consumers[ni])
            if (--indegree[c] == 0)
                ready.push(c);
    }
    if (order.size() != nodes.size()) {
        for (std::size_t ni = 0; ni < nodes.size(); ++ni)
            if (indegree[ni] != 0)
                throwError(ErrorCode::GraphInvalid,
                           "graph '%s': cycle through node '%s'",
                           name.c_str(), nodes[ni].name.c_str());
    }
    return order;
}

std::string
Graph::fingerprint() const
{
    // Names are cosmetic and excluded, exactly like the layer
    // fingerprints in runtime/sim_cache: two graphs that lower to the
    // same schedule share one hash. Every list is length-prefixed, so
    // the word stream parses one way only.
    std::uint64_t h = kFnv1aBasis;
    auto mix = [&h](std::uint64_t w) {
        h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
    };
    auto mixIds = [&mix](const std::vector<TensorId> &ids) {
        mix(ids.size());
        for (const TensorId t : ids)
            mix(t);
    };
    mix(tensors.size());
    for (const Tensor &t : tensors) {
        mix(t.elems);
        mix(fieldBits(t.dtype));
        mix(fieldBits(t.producer));
        mix(t.producerSlot);
    }
    mix(nodes.size());
    for (const Node &n : nodes) {
        mix(fieldBits(n.op));
        if (n.op == OpKind::Layer) {
            mix(fieldBits(n.layer.kind));
            model::forEachField(
                [&mix](const char *, auto v) { mix(fieldBits(v)); },
                n.layer);
        }
        mixIds(n.inputs);
        mixIds(n.outputs);
    }
    mixIds(outputs);

    static const char *hex = "0123456789abcdef";
    char key[20] = {'a', 'g', 'r', ':'};
    for (int i = 0; i < 16; ++i)
        key[4 + i] = hex[(h >> (60 - 4 * i)) & 0xf];
    return std::string(key, sizeof(key));
}

} // namespace graph
} // namespace ascend
