/**
 * @file
 * Tests for the quantization module (the Section 3.3 precision
 * trade-off) and the sequential functional network runner.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/functional.hh"
#include "core/quantize.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

namespace ascend {
namespace {

namespace fn = core::functional;
namespace quant = core::quant;
using model::Layer;
using model::Tensor;

TEST(Quantize, ParamsCoverMaxMagnitude)
{
    Tensor t({4});
    t[0] = -3.0f;
    t[1] = 1.0f;
    t[2] = 2.5f;
    t[3] = 0.0f;
    const auto p = quant::chooseParams(t, 8);
    EXPECT_EQ(p.qmax(), 127);
    EXPECT_EQ(p.qmin(), -128);
    EXPECT_NEAR(p.scale, 3.0f / 127, 1e-6);
}

TEST(Quantize, Int4RangeIsNarrow)
{
    Tensor t({1});
    t[0] = 7.0f;
    const auto p = quant::chooseParams(t, 4);
    EXPECT_EQ(p.qmax(), 7);
    EXPECT_EQ(p.qmin(), -8);
}

TEST(Quantize, RoundTripErrorWithinHalfStep)
{
    Rng rng(9);
    const Tensor t = Tensor::random({256}, rng, 4.0f);
    const auto p = quant::chooseParams(t, 8);
    const Tensor back = quant::dequantize(quant::quantize(t, p), p, t);
    EXPECT_LE(t.maxAbsDiff(back), p.scale * 0.5f + 1e-6f);
}

TEST(Quantize, ZeroTensorIsExact)
{
    Tensor t({8});
    const auto p = quant::chooseParams(t, 8);
    const Tensor back = quant::dequantize(quant::quantize(t, p), p, t);
    EXPECT_EQ(t.maxAbsDiff(back), 0.0f);
}

TEST(Quantize, GemmErrorOrderingFp16Int8Int4)
{
    // The Section 3.3 trade-off, measured: int8 error exceeds fp16
    // error, int4 exceeds int8.
    Rng rng(10);
    const Tensor a = Tensor::random({24, 48}, rng);
    const Tensor b = Tensor::random({48, 24}, rng);
    const Tensor ref = fn::referenceGemm(a, b);
    const double e_fp16 = quant::rmsError(fn::cubeGemm(a, b), ref);
    const double e_int8 =
        quant::rmsError(quant::quantizedGemm(a, b, 8), ref);
    const double e_int4 =
        quant::rmsError(quant::quantizedGemm(a, b, 4), ref);
    EXPECT_LT(e_fp16, e_int8);
    EXPECT_LT(e_int8, e_int4);
    // And all of them are usable approximations (not garbage).
    EXPECT_LT(e_int4, 0.5);
}

TEST(Quantize, Int8GemmIsReasonablyAccurate)
{
    Rng rng(11);
    const Tensor a = Tensor::random({16, 64}, rng);
    const Tensor b = Tensor::random({64, 16}, rng);
    const Tensor ref = fn::referenceGemm(a, b);
    double ref_rms = 0;
    for (std::size_t i = 0; i < ref.numel(); ++i)
        ref_rms += double(ref[i]) * ref[i];
    ref_rms = std::sqrt(ref_rms / double(ref.numel()));
    const double rel =
        quant::rmsError(quant::quantizedGemm(a, b, 8), ref) / ref_rms;
    EXPECT_LT(rel, 0.05); // a few percent relative RMS
}

TEST(Quantize, RmsErrorBasics)
{
    Tensor a({2}), b({2});
    a[0] = 1;
    a[1] = 2;
    b[0] = 1;
    b[1] = 4;
    EXPECT_NEAR(quant::rmsError(a, b), std::sqrt(2.0), 1e-9);
    EXPECT_EQ(quant::rmsError(a, a), 0.0);
}

// -------------------------------------------- sequential runner

TEST(RunSequential, HandBuiltCnnProducesDistribution)
{
    model::Network net;
    net.add(Layer::conv2d("c1", 1, 1, 8, 8, 4, 3, 1, 1));
    net.add(Layer::activation("r1", 4 * 64, model::ActKind::Relu));
    net.add(Layer::pool2d("p1", 1, 4, 8, 8, 2, 2));
    net.add(Layer::linear("fc", 1, 4 * 16, 10));
    net.add(Layer::softmax("sm", 1, 10));

    Rng rng(21);
    const Tensor input = Tensor::random({1, 1, 8, 8}, rng);
    Rng wrng(22);
    const Tensor out = fn::runSequential(net, input, wrng);
    ASSERT_EQ(out.numel(), 10u);
    float sum = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_GE(out[i], 0.0f);
        sum += out[i];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4);
}

TEST(RunSequential, DeterministicForSameSeeds)
{
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    Rng in_rng(31);
    const Tensor input = Tensor::random({1, 3, 96, 96}, in_rng, 0.5f);
    Rng w1(32), w2(32);
    const Tensor a = fn::runSequential(net, input, w1);
    const Tensor b = fn::runSequential(net, input, w2);
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f);
}

TEST(RunSequential, GestureNetEndToEndIsFinite)
{
    // The Ascend-Tiny workload runs functionally end-to-end: conv
    // stack -> pool -> fc, output finite and non-degenerate.
    const auto net = graph::toNetwork(graph::zoo::gestureNetGraph(1));
    Rng in_rng(41);
    const Tensor input = Tensor::random({1, 3, 96, 96}, in_rng, 0.5f);
    Rng w_rng(42);
    const Tensor out = fn::runSequential(net, input, w_rng);
    ASSERT_EQ(out.numel(), 8u); // 8 gesture classes
    float mag = 0;
    for (std::size_t i = 0; i < out.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(out[i]));
        mag += std::fabs(out[i]);
    }
    EXPECT_GT(mag, 0.0f);
}

TEST(RunSequentialDeath, AttentionLayersUnsupported)
{
    model::Network net;
    net.add(Layer::batchedMatmul("attn", 2, 4, 4, 4));
    Rng rng(1);
    Tensor input({1, 1, 4, 4});
    EXPECT_DEATH(fn::runSequential(net, input, rng), "unsupported");
}

} // anonymous namespace
} // namespace ascend
