/**
 * @file
 * Prefill-vs-decode cycle ratios and KV-cache footprint curves for
 * the KV-cache decoder workload (graph/decoder.hh) — the LLM-era
 * companion to the paper's Figs. 4-8 operator-ratio studies.
 *
 * Three sweeps on the Ascend-Max training core:
 *
 *  1. Phase cycles per context length: prefill over an n-token
 *     prompt vs one decode step at the same context, the
 *     cycles-per-token gap between them, and the replay ratio
 *     n*decode(n)/prefill(n) — how much slower naive token-by-token
 *     generation is than the fused prompt pass.
 *  2. KV footprint vs the LLC capacity ladder (96 MB baseline,
 *     720 MB 3D-SRAM): closed-form bytes, residency, and the re-read
 *     hit rate of the streaming decode access pattern.
 *  3. A decode serving curve through BatchLatencyModel::fromGraph —
 *     batch latency anchors for the fleet simulator, from graphs.
 *
 * `--smoke` shrinks the decoder and the grids. Both runs are pinned
 * to tests/golden (bench_ratio_decoder{,_smoke}.txt) at
 * ASCEND_THREADS 1 and 8 by ctest -L bench-golden.
 */

#include <cstring>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "memory/llc.hh"
#include "serving/latency_model.hh"
#include "soc/training_soc.hh"

using namespace ascend;

namespace {

graph::DecoderConfig
decoderConfig(bool smoke)
{
    graph::DecoderConfig cfg;
    if (smoke) {
        cfg.name = "decoder_smoke";
        cfg.hidden = 256;
        cfg.heads = 4;
        cfg.ffn = 1024;
        cfg.blocks = 2;
        cfg.vocab = 4096;
    } else {
        // GPT-2-large-ish: big enough that the phase asymmetry and
        // the KV footprint story are representative.
        cfg.name = "decoder_1b";
        cfg.hidden = 1536;
        cfg.heads = 16;
        cfg.ffn = 6144;
        cfg.blocks = 24;
        cfg.vocab = 32000;
    }
    return cfg;
}

runtime::SimSession
makeSession()
{
    return runtime::SimSession(soc::TrainingSoc().coreConfig());
}

void
phaseSweep(const graph::DecoderConfig &cfg,
           const std::vector<unsigned> &contexts)
{
    const runtime::SimSession session = makeSession();
    TextTable table("prefill vs decode (" + cfg.name + ", cycles)");
    table.header({"ctx", "prefill", "decode", "prefill/tok",
                  "decode/tok", "replay ratio"});
    for (const unsigned ctx : contexts) {
        const Cycles prefill =
            graph::graphResult(session, graph::prefillGraph(cfg, ctx))
                .totalCycles;
        const Cycles decode =
            graph::graphResult(session, graph::decodeGraph(cfg, ctx))
                .totalCycles;
        table.row({TextTable::num(std::uint64_t(ctx)),
                   TextTable::num(std::uint64_t(prefill)),
                   TextTable::num(std::uint64_t(decode)),
                   TextTable::num(double(prefill) / ctx, 0),
                   TextTable::num(double(decode), 0),
                   TextTable::num(double(ctx) * double(decode) /
                                      double(prefill),
                                  2)});
    }
    table.print(std::cout);
    std::cout << "replay ratio = n*decode(n)/prefill(n): token-by-token"
                 " generation vs one\nfused prompt pass. Decode GEMVs"
                 " re-read the weights for every token, so\nthe ratio"
                 " stays far above 1; quadratic prefill attention claws"
                 " some of\nit back at very long contexts.\n";
}

void
kvFootprintSweep(const graph::DecoderConfig &cfg,
                 const std::vector<unsigned> &contexts)
{
    memory::LlcConfig base; // 96 MiB
    memory::LlcConfig threeD;
    threeD.capacity = 720 * kMiB; // Section 4.1 3D-SRAM point

    TextTable table("KV cache residency (" + cfg.name + ")");
    table.header({"ctx", "KV MiB", "96M fits", "96M reread hit",
                  "720M fits", "720M reread hit"});
    for (const unsigned ctx : contexts) {
        const graph::KvResidency a =
            graph::kvResidency(cfg, ctx, base);
        const graph::KvResidency b =
            graph::kvResidency(cfg, ctx, threeD);
        table.row({TextTable::num(std::uint64_t(ctx)),
                   TextTable::num(double(a.kvBytes) / double(kMiB), 2),
                   a.fits ? "yes" : "no",
                   TextTable::num(100.0 * a.rereadHitRate, 1) + "%",
                   b.fits ? "yes" : "no",
                   TextTable::num(100.0 * b.rereadHitRate, 1) + "%"});
    }
    table.print(std::cout);
    std::cout << "kv bytes = 2 * blocks * bytes(batch*ctx*hidden);"
                 " once the footprint\nspills the LLC the streaming"
                 " re-read collapses to DRAM traffic.\n";
}

void
servingCurve(const graph::DecoderConfig &cfg, unsigned ctx,
             unsigned max_batch)
{
    const runtime::SimSession session = makeSession();
    graph::DecoderConfig batched = cfg;
    const serving::BatchLatencyModel model =
        serving::BatchLatencyModel::fromGraph(
            session,
            [&](unsigned b) {
                batched.batch = b;
                return graph::decodeGraph(batched, ctx);
            },
            serving::BatchLatencyModel::denseAnchors(max_batch),
            session.config().clockGhz);

    TextTable table("decode batch latency curve (ctx " +
                    std::to_string(ctx) + ")");
    table.header({"batch", "latency us", "tok/s"});
    for (const auto &[b, sec] : model.points())
        table.row({TextTable::num(std::uint64_t(b)),
                   TextTable::num(sec * 1e6, 1),
                   TextTable::num(double(b) / sec, 0)});
    table.print(std::cout);
    std::cout << "curve fingerprint " << model.fingerprint()
              << " (feeds serving::runFleet)\n";
}

} // anonymous namespace

int
runBench(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            fatal("unknown flag '%s' (--smoke)", argv[i]);
    }

    bench::banner("KV-cache decoder: prefill/decode ratio + residency");

    const graph::DecoderConfig cfg = decoderConfig(smoke);
    const std::vector<unsigned> contexts =
        smoke ? std::vector<unsigned>{32, 128}
              : std::vector<unsigned>{128, 512, 2048, 8192};
    phaseSweep(cfg, contexts);

    const std::vector<unsigned> kvContexts =
        smoke ? std::vector<unsigned>{128, 100000}
              : std::vector<unsigned>{512, 2048, 8192, 32768, 131072};
    kvFootprintSweep(cfg, kvContexts);

    servingCurve(cfg, smoke ? 64 : 1024, smoke ? 4 : 16);
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
