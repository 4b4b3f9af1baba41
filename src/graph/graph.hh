/**
 * @file
 * Graph IR: DAGs of layers with explicit tensor edges.
 *
 * The model layer (model/network.hh) is an ordered list — enough for
 * the paper's five zoo networks, because their DAG structure (ResNet
 * residuals, BERT attention branches) collapses to the same layer
 * multiset when lowered. It cannot express *new* workloads whose
 * shape depends on wiring: KV-cache decoders whose cache tensors are
 * graph inputs and outputs, or multi-output heads.
 *
 * This module is the ONNX-like front-end the ROADMAP asks for, and a
 * workload enters it only through the builders below: nodes are
 * either compute nodes wrapping one model::Layer or structural nodes
 * (residual-add, concat, split); edges are explicit tensors with an
 * element count and dtype. Structural invariants (acyclic,
 * no dangling edges, per-node shape agreement) are checked by
 * validate(), which throws structured ascend::Error — GraphInvalid
 * for wiring damage, GraphShapeMismatch for inconsistent volumes —
 * so a service embedding the simulator can reject one bad graph
 * without dying.
 *
 * Lowering (graph/lower.hh) walks a validated DAG in deterministic
 * topological order through the existing tiling compiler; the zoo
 * graphs' lowered layer lists and cycles are frozen in the zoo golden
 * (tests/golden/zoo_networks.txt).
 *
 * The struct members are public, repo-style: builder methods keep
 * the producer back-references consistent, and validate() is the
 * single source of truth — tests corrupt graphs directly to exercise
 * the negative paths.
 */

#ifndef ASCEND_GRAPH_GRAPH_HH
#define ASCEND_GRAPH_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "model/layer.hh"

namespace ascend {
namespace graph {

/** Index into Graph::tensors. */
using TensorId = std::uint32_t;

/** What a node computes. */
enum class OpKind {
    Layer,       ///< one model::Layer (any existing kind)
    ResidualAdd, ///< two-input elementwise add (lowers to Elementwise)
    Concat,      ///< pure wiring: concatenation along the flat dim
    Split,       ///< pure wiring: partition along the flat dim
};

const char *toString(OpKind op);

/**
 * One tensor edge. Shapes are flat (element count + dtype): the cost
 * model consumes byte volumes, never axis order, so a flat volume
 * plus per-node interpretation is exactly as accurate as NCHW
 * carried everywhere — and it makes concat/split trivially general.
 */
struct Tensor
{
    std::string name;
    std::uint64_t elems = 0;
    DataType dtype = DataType::Fp16;
    /// Producing node index, or -1 for a graph input.
    int producer = -1;
    /// Output slot within the producer.
    unsigned producerSlot = 0;

    Bytes bytes() const { return bytesOf(dtype, elems); }
};

/** One node. `layer` is meaningful only when op == OpKind::Layer. */
struct Node
{
    OpKind op = OpKind::Layer;
    std::string name;
    model::Layer layer;
    std::vector<TensorId> inputs;
    std::vector<TensorId> outputs;
};

/**
 * The graph. Build with the add* methods (they derive output tensor
 * shapes and keep back-references consistent), mark result tensors
 * with markOutput, then validate() before lowering.
 */
class Graph
{
  public:
    std::string name;
    std::vector<Node> nodes;
    std::vector<Tensor> tensors;
    /// Tensors the graph exposes as results (multi-output is normal:
    /// a decoder step returns activations plus its updated KV cache).
    std::vector<TensorId> outputs;

    /** Add a graph-input tensor. */
    TensorId addInput(const std::string &tensor_name,
                      std::uint64_t elems, DataType dt);

    /**
     * Add a compute node for @p layer consuming @p ins.
     *
     * @p ins carries the activation edge first; GEMM-like layers
     * whose second operand is itself an activation (attention
     * scores/context consuming K/V) pass it as a second input. The
     * output tensor shape is derived from the layer; its name is
     * "<layer.name>:0". Throws Error{GraphShapeMismatch} when the
     * node's shapes disagree, and refuses a conv, depthwise or pool
     * layer with a zero stride or a kernel larger than its padded
     * input before deriving that shape.
     */
    TensorId addLayer(model::Layer layer, std::vector<TensorId> ins);

    /** Two-input residual add; output mirrors the input shape. */
    TensorId addResidualAdd(const std::string &node_name, TensorId a,
                            TensorId b);

    /** Concatenate @p ins (same dtype) into one tensor. */
    TensorId addConcat(const std::string &node_name,
                       std::vector<TensorId> ins);

    /**
     * Partition @p in into tensors of @p part_elems elements (must
     * sum to the input volume). This doubles as slice: consume only
     * the parts you need, unconsumed parts are legal.
     */
    std::vector<TensorId> addSplit(const std::string &node_name,
                                   TensorId in,
                                   const std::vector<std::uint64_t>
                                       &part_elems);

    /** Even split into @p parts parts. */
    std::vector<TensorId> addSplit(const std::string &node_name,
                                   TensorId in, unsigned parts);

    /** Mark @p t as a graph output. */
    void markOutput(TensorId t);

    /**
     * Full structural + shape validation. Throws
     * Error{GraphInvalid} on a cycle, an out-of-range edge, a
     * producer back-reference that disagrees with the node, or an
     * orphan tensor; Error{GraphShapeMismatch} when a node's tensor
     * volumes disagree with its operation. Returns topoOrder(),
     * which the acyclicity check computes anyway.
     */
    std::vector<std::size_t> validate() const;

    /**
     * Deterministic topological order of node indices (Kahn's
     * algorithm, smallest-index-first tie-break, so a graph built in
     * execution order lowers in that order). Throws
     * Error{GraphInvalid} on a cycle.
     */
    std::vector<std::size_t> topoOrder() const;

    /**
     * Structural content hash, "agr:" + 16 hex digits: a 64-bit
     * word-at-a-time mix over every tensor's elems, dtype, producer
     * and slot, every node's op (a layer node's kind and each
     * model::forEachField word included, names excluded) and its
     * edges, and the graph outputs, each list length-prefixed. No
     * key text is built; the one allocation is the returned key.
     * Two graphs that lower to the same schedule hash equal; the
     * "agr:" prefix keys a SimCache namespace that can never alias
     * the "lay:"-suffixed per-layer keys (tests/test_graph_ir.cc
     * proves both). Recomputed on every call: the members are
     * public and may change between calls.
     */
    std::string fingerprint() const;

  private:
    TensorId newTensor(const std::string &tensor_name,
                       std::uint64_t elems, DataType dt, int producer,
                       unsigned slot);
    const Tensor &checkedTensor(TensorId t, const char *who) const;
};

} // namespace graph
} // namespace ascend

#endif // ASCEND_GRAPH_GRAPH_HH
