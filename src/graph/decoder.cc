/**
 * @file
 * Prefill / decode graph builders and KV residency model.
 */

#include "graph/decoder.hh"

#include "common/error.hh"
#include "common/logging.hh"

namespace ascend {
namespace graph {

namespace {

using model::ActKind;
using model::Layer;

/**
 * The transformer block stack shared by both phases. @p seq is the
 * number of tokens flowing through the dense path this phase
 * (prompt length for prefill, 1 for decode); @p ctx the attention
 * context length. When @p kv_in is non-null it holds 2*blocks cache
 * input tensors (K then V per block) to append to; the (possibly
 * updated) caches are always marked graph outputs.
 */
TensorId
blockStack(Graph &g, const DecoderConfig &cfg, TensorId x,
           unsigned seq, unsigned ctx,
           const std::vector<TensorId> *kv_in)
{
    const std::uint64_t tokens = std::uint64_t(cfg.batch) * seq;
    const std::uint64_t bmm_count =
        std::uint64_t(cfg.batch) * cfg.heads;
    const DataType dt = cfg.dtype;

    x = g.addLayer(
        Layer::elementwise("embed", tokens * cfg.hidden, dt), {x});
    x = g.addLayer(Layer::layerNorm("embed.ln", tokens, cfg.hidden, dt),
                   {x});

    for (unsigned b = 0; b < cfg.blocks; ++b) {
        const std::string p = "blk" + std::to_string(b);
        TensorId qkv = g.addLayer(
            Layer::linear(p + ".qkv", tokens, cfg.hidden,
                          3ull * cfg.hidden, dt),
            {x});
        const std::vector<TensorId> parts =
            g.addSplit(p + ".qkv.split", qkv, 3);
        TensorId k = parts[1];
        TensorId v = parts[2];
        if (kv_in) {
            // Decode: append this token's K/V to the incoming caches.
            k = g.addConcat(p + ".k.append",
                            {(*kv_in)[2 * b + 0], k});
            v = g.addConcat(p + ".v.append",
                            {(*kv_in)[2 * b + 1], v});
        }
        // The (updated) caches are results of the phase.
        g.markOutput(k);
        g.markOutput(v);

        TensorId t = g.addLayer(
            Layer::batchedMatmul(p + ".scores", bmm_count, seq,
                                 cfg.headDim(), ctx, dt),
            {parts[0], k});
        t = g.addLayer(Layer::softmax(p + ".softmax",
                                      bmm_count * seq, ctx, dt),
                       {t});
        t = g.addLayer(
            Layer::batchedMatmul(p + ".context", bmm_count, seq, ctx,
                                 cfg.headDim(), dt),
            {t, v});
        t = g.addLayer(
            Layer::linear(p + ".proj", tokens, cfg.hidden, cfg.hidden,
                          dt),
            {t});
        t = g.addResidualAdd(p + ".add1", t, x);
        TensorId ln1 = g.addLayer(
            Layer::layerNorm(p + ".ln1", tokens, cfg.hidden, dt), {t});

        t = g.addLayer(
            Layer::linear(p + ".ffn1", tokens, cfg.hidden, cfg.ffn,
                          dt),
            {ln1});
        t = g.addLayer(Layer::activation(p + ".gelu",
                                         tokens * cfg.ffn,
                                         ActKind::Gelu, dt),
                       {t});
        t = g.addLayer(
            Layer::linear(p + ".ffn2", tokens, cfg.ffn, cfg.hidden,
                          dt),
            {t});
        t = g.addResidualAdd(p + ".add2", t, ln1);
        x = g.addLayer(
            Layer::layerNorm(p + ".ln2", tokens, cfg.hidden, dt), {t});
    }
    return x;
}

/** Refuse dims no decoder has, and an empty @p tokens of @p what. */
void
checkConfig(const DecoderConfig &cfg, unsigned tokens, const char *what)
{
    if (cfg.batch == 0 || cfg.hidden == 0 || cfg.blocks == 0 ||
        cfg.heads == 0 || cfg.hidden % cfg.heads != 0 || tokens == 0)
        throwError(ErrorCode::ConfigValidation,
                   "decoder %s: batch %u, hidden %u, blocks %u and %s %u "
                   "must be positive, and heads %u must divide hidden",
                   cfg.name.c_str(), cfg.batch, cfg.hidden, cfg.blocks,
                   what, tokens, cfg.heads);
}

} // anonymous namespace

Graph
prefillGraph(const DecoderConfig &cfg, unsigned prompt_len)
{
    checkConfig(cfg, prompt_len, "prompt_len");
    const std::uint64_t tokens =
        std::uint64_t(cfg.batch) * prompt_len;

    Graph g;
    g.name = cfg.name + ".prefill";
    TensorId x = g.addInput("prompt", tokens * cfg.hidden, cfg.dtype);
    x = blockStack(g, cfg, x, prompt_len, prompt_len, nullptr);

    // Only the last token's hidden state feeds the first sampled
    // logit; the earlier positions exist to fill the caches.
    if (prompt_len > 1) {
        const std::uint64_t last =
            std::uint64_t(cfg.batch) * cfg.hidden;
        x = g.addSplit("lm_head.slice", x,
                       {tokens * cfg.hidden - last, last})[1];
    }
    x = g.addLayer(Layer::linear("lm_head", cfg.batch, cfg.hidden,
                                 cfg.vocab, cfg.dtype),
                   {x});
    g.markOutput(x);
    return g;
}

Graph
decodeGraph(const DecoderConfig &cfg, unsigned ctx)
{
    checkConfig(cfg, ctx, "ctx");

    Graph g;
    g.name = cfg.name + ".decode";
    TensorId x = g.addInput(
        "token", std::uint64_t(cfg.batch) * cfg.hidden, cfg.dtype);

    std::vector<TensorId> kv;
    if (ctx > 1) {
        const std::uint64_t cached =
            std::uint64_t(cfg.batch) * (ctx - 1) * cfg.hidden;
        kv.reserve(2 * cfg.blocks);
        for (unsigned b = 0; b < cfg.blocks; ++b) {
            const std::string p = "blk" + std::to_string(b);
            kv.push_back(
                g.addInput(p + ".k.cache", cached, cfg.dtype));
            kv.push_back(
                g.addInput(p + ".v.cache", cached, cfg.dtype));
        }
    }
    x = blockStack(g, cfg, x, 1, ctx, ctx > 1 ? &kv : nullptr);

    x = g.addLayer(Layer::linear("lm_head", cfg.batch, cfg.hidden,
                                 cfg.vocab, cfg.dtype),
                   {x});
    g.markOutput(x);
    return g;
}

Bytes
kvCacheBytes(const DecoderConfig &cfg, unsigned ctx)
{
    return 2 * Bytes(cfg.blocks) *
           bytesOf(cfg.dtype,
                   std::uint64_t(cfg.batch) * ctx * cfg.hidden);
}

KvResidency
kvResidency(const DecoderConfig &cfg, unsigned ctx,
            const memory::LlcConfig &llc)
{
    KvResidency out;
    out.kvBytes = kvCacheBytes(cfg, ctx);
    out.lines = (out.kvBytes + llc.lineBytes - 1) / llc.lineBytes;
    out.fits = out.kvBytes <= llc.capacity;

    // One decode step reads every K and V line (scores sweep K,
    // context sweeps V): warm with one full sweep, then measure the
    // re-read — resident caches hit everywhere, overflowing ones
    // thrash the LRU from the front.
    memory::Llc cache(llc);
    for (std::uint64_t line = 0; line < out.lines; ++line)
        cache.access(line * llc.lineBytes);
    cache.resetStats();
    for (std::uint64_t line = 0; line < out.lines; ++line)
        cache.access(line * llc.lineBytes);
    out.rereadHitRate = cache.partStats(0).hitRate();
    return out;
}

} // namespace graph
} // namespace ascend
