/**
 * @file
 * Shape-accurate builders for the networks the paper evaluates
 * (Table 1, Figs. 4-9): the single definition of every zoo network.
 *
 * The five DAG networks are explicit graphs: residual connections are
 * ResidualAdd nodes wired from the real producer tensors, BERT's
 * fused QKV projection feeds a Split whose parts drive the attention
 * matmuls as true two-operand nodes, and the pooler consumes a slice
 * (unequal Split) of the final hidden states. Consumers that want a
 * layer list call toNetwork() (graph/lower.hh). The lowered layer
 * lists, FLOPs, parameters and cycles are frozen in
 * tests/golden/zoo_networks.txt, which test_network_zoo.cc checks.
 *
 * The extended Table 1 workloads are plain chains and return a
 * model::Network directly.
 */

#ifndef ASCEND_GRAPH_ZOO_GRAPHS_HH
#define ASCEND_GRAPH_ZOO_GRAPHS_HH

#include <string>

#include "graph/graph.hh"
#include "model/network.hh"

namespace ascend {
namespace graph {
namespace zoo {

/** ResNet50 v1.5 with explicit residual wiring. */
Graph resnet50Graph(unsigned batch, DataType dt = DataType::Fp16);

/** MobileNetV2 with explicit inverted-residual wiring. */
Graph mobilenetV2Graph(unsigned batch, DataType dt = DataType::Fp16);

/** BERT encoder stack as a DAG (QKV split, two-operand attention). */
Graph bertGraph(const std::string &name, unsigned batch,
                unsigned seq_len, unsigned hidden, unsigned layers,
                unsigned heads, unsigned ffn,
                DataType dt = DataType::Fp16);

/** BERT-Base (12 x 768, 12 heads, 3072 FFN). */
Graph bertBaseGraph(unsigned batch, unsigned seq_len = 384,
                    DataType dt = DataType::Fp16);

/** BERT-Large (24 x 1024, 16 heads, 4096 FFN). */
Graph bertLargeGraph(unsigned batch, unsigned seq_len = 384,
                     DataType dt = DataType::Fp16);

/** VGG16 (a pure chain: the degenerate DAG). */
Graph vgg16Graph(unsigned batch, DataType dt = DataType::Fp16);

/** Always-on gesture CNN (int8 chain). */
Graph gestureNetGraph(unsigned batch);

/**
 * MaskRCNN-style detector (Table 1's smart-city workload): ResNet50
 * backbone + FPN + RPN with NMS + RoiAlign + box and mask heads.
 */
model::Network maskRcnn(unsigned batch, DataType dt = DataType::Fp16);

/** Wide & Deep recommendation model (Table 1's Ascend-Max workload). */
model::Network wideDeep(unsigned batch, DataType dt = DataType::Fp16);

/** Stacked LSTM language model (the related-work NLP workload). */
model::Network lstm(unsigned batch, unsigned seq_len = 32,
                    unsigned input_dim = 512, unsigned hidden = 1024,
                    unsigned layers = 2, DataType dt = DataType::Fp16);

/**
 * Siamese tracking network (Table 1's intelligent-surveillance
 * workload): shared-weight template/search branches, depthwise
 * cross-correlation, and a box head.
 */
model::Network siameseTracker(unsigned batch,
                              DataType dt = DataType::Fp16);

/**
 * PointNet-style point-cloud classifier (Table 1's "Pointsnet"
 * series): per-point shared MLPs + max-pool aggregation.
 */
model::Network pointNet(unsigned batch, unsigned points = 1024,
                        DataType dt = DataType::Fp16);

/**
 * SLAM front-end task mix for the automotive Vector Core
 * (Section 3.3): stereo, feature sort/match, quaternion pose,
 * clustering and linear programming as vector-unit operators.
 */
model::Network slamFrontend(unsigned points = 2048,
                            DataType dt = DataType::Fp16);

} // namespace zoo
} // namespace graph
} // namespace ascend

#endif // ASCEND_GRAPH_ZOO_GRAPHS_HH
