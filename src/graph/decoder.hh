/**
 * @file
 * KV-cache decoder workload: the first LLM-era network in the zoo.
 *
 * A decoder-only transformer serves in two phases with very different
 * hardware behavior, and the graph IR is what lets one model express
 * both:
 *
 *  - prefill ingests the whole prompt at once — big GEMMs over
 *    batch*prompt tokens, cube-bound, and it *produces* the per-block
 *    K/V caches as extra graph outputs (multi-output graphs);
 *  - decode advances one token — GEMV-thin matmuls whose second
 *    operands are the K/V caches riding in as graph *inputs*, with a
 *    Concat modeling the cache append and the updated caches marked
 *    as outputs again.
 *
 * The two phases lower to different graph shapes from one config,
 * which is exactly the capability the linear model::Network cannot
 * express. kvCacheBytes gives the closed-form cache footprint;
 * kvResidency streams the cache through the memory::Llc model to ask
 * the paper's Section 4.1 question — does the working set fit in
 * 96 MB, or does it need the 720 MB 3D-SRAM tier — for KV caches
 * instead of feature maps. bench/bench_ratio_decoder.cc sweeps all
 * of this into the prefill-vs-decode cycle-ratio report.
 */

#ifndef ASCEND_GRAPH_DECODER_HH
#define ASCEND_GRAPH_DECODER_HH

#include <string>

#include "graph/graph.hh"
#include "memory/llc.hh"

namespace ascend {
namespace graph {

/** Decoder-only transformer dimensions (GPT-style block stack). */
struct DecoderConfig
{
    std::string name = "decoder";
    unsigned batch = 1;
    unsigned hidden = 768;
    unsigned heads = 12;
    unsigned ffn = 3072;   ///< FFN inner width
    unsigned blocks = 12;  ///< decoder blocks
    unsigned vocab = 32000;
    DataType dtype = DataType::Fp16;

    unsigned headDim() const { return hidden / heads; }
};

/**
 * The prefill phase over a @p prompt_len -token prompt: full
 * self-attention across the prompt, per-block K/V tensors marked as
 * graph outputs (the caches decode will consume), and the LM head
 * over the last token only. This and decodeGraph throw ascend::Error
 * (ConfigValidation) on a zero dimension or token count, or heads
 * that do not divide hidden.
 */
Graph prefillGraph(const DecoderConfig &cfg, unsigned prompt_len);

/**
 * One decode step at total context length @p ctx (the new token
 * included, so ctx >= 1). Per block the K/V caches of ctx-1 tokens
 * enter as graph inputs, a Concat appends the new token's K/V, and
 * the updated caches leave as outputs next to the logits.
 */
Graph decodeGraph(const DecoderConfig &cfg, unsigned ctx);

/**
 * Closed-form K/V cache footprint at context length @p ctx:
 * 2 tensors * blocks * bytesOf(dtype, batch*ctx*hidden). The memory
 * model and tests/test_decoder_kv.cc agree on this formula.
 */
Bytes kvCacheBytes(const DecoderConfig &cfg, unsigned ctx);

/** What kvResidency measured. */
struct KvResidency
{
    Bytes kvBytes = 0;          ///< cache footprint at this ctx
    std::uint64_t lines = 0;    ///< LLC lines the cache spans
    /** Hit rate of a second full sweep after a warming sweep: 1.0
     *  when the cache is LLC-resident, collapsing toward 0 once the
     *  footprint exceeds capacity (LRU streaming worst case). */
    double rereadHitRate = 0;
    bool fits = false;          ///< kvBytes <= llc capacity
};

/**
 * Stream the K/V cache through an LLC of geometry @p llc twice (one
 * decode step touches every line of every block's K and V) and report
 * whether it stays resident. Deterministic: tag-only LRU on a linear
 * address walk.
 */
KvResidency kvResidency(const DecoderConfig &cfg, unsigned ctx,
                        const memory::LlcConfig &llc);

} // namespace graph
} // namespace ascend

#endif // ASCEND_GRAPH_DECODER_HH
