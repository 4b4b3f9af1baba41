/**
 * @file
 * Section 7.2 (future work): "we would like to apply fp32 in the cube
 * unit to adapt to some corner applications" — HPC workloads that
 * need full single precision.
 *
 * The bench runs a large fp32 GEMM (the HPC proxy) three ways:
 *   1. on a shipping core, fp32 via the vector unit (the Section 2.2
 *      fallback: "we can also apply the Vector Unit to help fp32"),
 *   2. on the next-generation core's fp32 cube mode (half fp16 rate),
 *   3. the same GEMM in fp16 for reference,
 * and reports the throughput ladder plus the numerical-accuracy
 * ladder from the functional layer (fp32 exact, fp16 rounded, int8
 * quantized) that motivates wanting fp32 at all.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "core/core_sim.hh"
#include "core/functional.hh"
#include "core/quantize.hh"

using namespace ascend;

int
runBench()
{
    const model::Layer hpc =
        model::Layer::linear("hpc.gemm", 2048, 2048, 2048,
                             DataType::Fp32);
    const model::Layer hpc16 =
        model::Layer::linear("hpc.gemm16", 2048, 2048, 2048,
                             DataType::Fp16);

    bench::banner("Section 7.2: fp32 in the cube unit (next-gen core)");
    TextTable t("2048^3 GEMM (17.2 GFLOP)");
    t.header({"path", "cycles", "achieved GFLOPS", "vs fp16 cube"});

    // 1. Shipping core: fp32 on the vector unit.
    const auto shipping = arch::makeCoreConfig(arch::CoreVersion::Max);
    {
        compiler::CompileOptions options;
        options.mapGemmToVector = true;
        compiler::LayerCompiler lc(shipping, options);
        core::CoreSim sim(shipping);
        const auto r = sim.run(lc.compile(hpc));
        t.row({"vector-unit fp32 (shipping)",
               TextTable::num(std::uint64_t(r.totalCycles)),
               TextTable::num(double(hpc.flops()) /
                                  double(r.totalCycles) *
                                  shipping.clockGhz, 0),
               "-"});
    }

    // 2/3. Next-gen cube fp32 vs fp16.
    const auto nextgen = arch::makeNextGenCoreConfig();
    compiler::LayerCompiler lc(nextgen);
    core::CoreSim sim(nextgen);
    const auto r32 = sim.run(lc.compile(hpc));
    const auto r16 = sim.run(lc.compile(hpc16));
    t.row({"cube fp32 (next-gen)",
           TextTable::num(std::uint64_t(r32.totalCycles)),
           TextTable::num(double(hpc.flops()) /
                              double(r32.totalCycles) *
                              nextgen.clockGhz, 0),
           TextTable::num(double(r32.totalCycles) / r16.totalCycles,
                          2) + "x"});
    t.row({"cube fp16 (reference)",
           TextTable::num(std::uint64_t(r16.totalCycles)),
           TextTable::num(double(hpc.flops()) /
                              double(r16.totalCycles) *
                              nextgen.clockGhz, 0),
           "1.00x"});
    t.print(std::cout);

    // Why fp32 matters: the accuracy ladder on an ill-conditioned-ish
    // functional GEMM.
    bench::banner("Numerical accuracy ladder (functional layer)");
    Rng rng(77);
    const auto a = model::Tensor::random({64, 256}, rng, 4.0f);
    const auto b = model::Tensor::random({256, 64}, rng, 4.0f);
    const auto ref = core::functional::referenceGemm(a, b);
    TextTable e("RMS error vs fp32 reference");
    e.header({"precision", "rms error"});
    e.row({"fp16 cube",
           TextTable::num(core::quant::rmsError(
                              core::functional::cubeGemm(a, b), ref),
                          4)});
    e.row({"int8 cube",
           TextTable::num(core::quant::rmsError(
                              core::quant::quantizedGemm(a, b, 8), ref),
                          4)});
    e.row({"int4 cube",
           TextTable::num(core::quant::rmsError(
                              core::quant::quantizedGemm(a, b, 4), ref),
                          4)});
    e.print(std::cout);
    std::cout << "The next-gen fp32 cube runs ~2x slower than fp16 but "
                 "~60x faster than routing\nfp32 through the vector "
                 "unit - the Section 7.2 trade for HPC corner cases.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::main(argc, argv, runBench);
}
