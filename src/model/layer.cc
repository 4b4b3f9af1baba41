/**
 * @file
 * Layer factories and derived-metric implementations.
 */

#include "model/layer.hh"

#include "common/logging.hh"

namespace ascend {
namespace model {

const char *
toString(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv2d:          return "conv2d";
      case LayerKind::DepthwiseConv2d: return "dwconv2d";
      case LayerKind::Linear:          return "linear";
      case LayerKind::BatchedMatmul:   return "bmm";
      case LayerKind::Pool2d:          return "pool2d";
      case LayerKind::BatchNorm:       return "batchnorm";
      case LayerKind::LayerNorm:       return "layernorm";
      case LayerKind::Activation:      return "activation";
      case LayerKind::Softmax:         return "softmax";
      case LayerKind::Elementwise:     return "elementwise";
      case LayerKind::CvOp:            return "cvop";
    }
    return "?";
}

const char *
toString(ActKind act)
{
    switch (act) {
      case ActKind::Relu:    return "relu";
      case ActKind::Relu6:   return "relu6";
      case ActKind::Gelu:    return "gelu";
      case ActKind::Sigmoid: return "sigmoid";
      case ActKind::Swish:   return "swish";
    }
    return "?";
}

Layer
Layer::conv2d(std::string name, unsigned batch, unsigned in_c,
              unsigned in_h, unsigned in_w, unsigned out_c,
              unsigned kernel, unsigned stride, unsigned pad, DataType dt)
{
    Layer l;
    l.kind = LayerKind::Conv2d;
    l.name = std::move(name);
    l.dtype = dt;
    l.batch = batch;
    l.inC = in_c;
    l.inH = in_h;
    l.inW = in_w;
    l.outC = out_c;
    l.kernelH = l.kernelW = kernel;
    l.strideH = l.strideW = stride;
    l.padH = l.padW = pad;
    return l;
}

Layer
Layer::depthwiseConv2d(std::string name, unsigned batch, unsigned channels,
                       unsigned in_h, unsigned in_w, unsigned kernel,
                       unsigned stride, unsigned pad, DataType dt)
{
    Layer l = conv2d(std::move(name), batch, channels, in_h, in_w,
                     channels, kernel, stride, pad, dt);
    l.kind = LayerKind::DepthwiseConv2d;
    return l;
}

Layer
Layer::linear(std::string name, std::uint64_t m, std::uint64_t k,
              std::uint64_t n, DataType dt)
{
    Layer l;
    l.kind = LayerKind::Linear;
    l.name = std::move(name);
    l.dtype = dt;
    l.gemmM = m;
    l.gemmK = k;
    l.gemmN = n;
    return l;
}

Layer
Layer::batchedMatmul(std::string name, std::uint64_t count, std::uint64_t m,
                     std::uint64_t k, std::uint64_t n, DataType dt)
{
    Layer l = linear(std::move(name), m, k, n, dt);
    l.kind = LayerKind::BatchedMatmul;
    l.matmulCount = count;
    return l;
}

Layer
Layer::pool2d(std::string name, unsigned batch, unsigned channels,
              unsigned in_h, unsigned in_w, unsigned kernel,
              unsigned stride, DataType dt)
{
    Layer l;
    l.kind = LayerKind::Pool2d;
    l.name = std::move(name);
    l.dtype = dt;
    l.batch = batch;
    l.inC = l.outC = channels;
    l.inH = in_h;
    l.inW = in_w;
    l.kernelH = l.kernelW = kernel;
    l.strideH = l.strideW = stride;
    return l;
}

Layer
Layer::batchNorm(std::string name, std::uint64_t elems, DataType dt)
{
    Layer l;
    l.kind = LayerKind::BatchNorm;
    l.name = std::move(name);
    l.dtype = dt;
    l.elems = elems;
    return l;
}

Layer
Layer::layerNorm(std::string name, std::uint64_t rows, std::uint64_t row_len,
                 DataType dt)
{
    Layer l;
    l.kind = LayerKind::LayerNorm;
    l.name = std::move(name);
    l.dtype = dt;
    l.elems = rows * row_len;
    l.rowLen = row_len;
    return l;
}

Layer
Layer::activation(std::string name, std::uint64_t elems, ActKind act,
                  DataType dt)
{
    Layer l;
    l.kind = LayerKind::Activation;
    l.name = std::move(name);
    l.dtype = dt;
    l.elems = elems;
    l.act = act;
    return l;
}

Layer
Layer::softmax(std::string name, std::uint64_t rows, std::uint64_t row_len,
               DataType dt)
{
    Layer l;
    l.kind = LayerKind::Softmax;
    l.name = std::move(name);
    l.dtype = dt;
    l.elems = rows * row_len;
    l.rowLen = row_len;
    return l;
}

Layer
Layer::elementwise(std::string name, std::uint64_t elems, DataType dt)
{
    Layer l;
    l.kind = LayerKind::Elementwise;
    l.name = std::move(name);
    l.dtype = dt;
    l.elems = elems;
    return l;
}

Layer
Layer::cvOp(std::string name, std::uint64_t elems, double passes,
            DataType dt)
{
    Layer l;
    l.kind = LayerKind::CvOp;
    l.name = std::move(name);
    l.dtype = dt;
    l.elems = elems;
    l.cvPasses = passes;
    return l;
}

unsigned
Layer::outH() const
{
    simAssert(strideH > 0, "stride must be positive");
    return (inH + 2 * padH - kernelH) / strideH + 1;
}

unsigned
Layer::outW() const
{
    simAssert(strideW > 0, "stride must be positive");
    return (inW + 2 * padW - kernelW) / strideW + 1;
}

bool
Layer::isCubeLayer() const
{
    switch (kind) {
      case LayerKind::Conv2d:
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        return true;
      default:
        return false;
    }
}

Flops
Layer::flops() const
{
    switch (kind) {
      case LayerKind::Conv2d:
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul: {
        std::uint64_t m, k, n;
        lowerToGemm(m, k, n);
        return 2 * m * k * n * matmulCount;
      }
      case LayerKind::DepthwiseConv2d:
        return 2ull * batch * outC * outH() * outW() * kernelH * kernelW;
      case LayerKind::Pool2d:
        return std::uint64_t(batch) * outC * outH() * outW() *
               kernelH * kernelW;
      case LayerKind::BatchNorm:
      case LayerKind::Activation:
      case LayerKind::Elementwise:
        return elems;
      case LayerKind::LayerNorm:
      case LayerKind::Softmax:
        return 4 * elems;
      case LayerKind::CvOp:
        return static_cast<Flops>(double(elems) * cvPasses);
    }
    return 0;
}

Bytes
Layer::inputBytes() const
{
    if (inputBytesOverride)
        return inputBytesOverride;
    switch (kind) {
      case LayerKind::Conv2d:
      case LayerKind::DepthwiseConv2d:
      case LayerKind::Pool2d:
        return bytesOf(dtype, std::uint64_t(batch) * inC * inH * inW);
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        return bytesOf(dtype, gemmM * gemmK * matmulCount);
      default:
        return bytesOf(dtype, elems);
    }
}

Bytes
Layer::weightBytes() const
{
    switch (kind) {
      case LayerKind::Conv2d:
        return bytesOf(dtype, std::uint64_t(inC) * outC * kernelH * kernelW);
      case LayerKind::DepthwiseConv2d:
        return bytesOf(dtype, std::uint64_t(outC) * kernelH * kernelW);
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        return bytesOf(dtype, gemmK * gemmN * matmulCount);
      case LayerKind::BatchNorm:
      case LayerKind::LayerNorm:
        // Scale and shift vectors; negligible but nonzero.
        return bytesOf(dtype, rowLen ? 2 * rowLen : 2);
      default:
        return 0;
    }
}

Bytes
Layer::outputBytes() const
{
    if (outputBytesOverride)
        return outputBytesOverride;
    switch (kind) {
      case LayerKind::Conv2d:
      case LayerKind::DepthwiseConv2d:
      case LayerKind::Pool2d:
        return bytesOf(dtype, std::uint64_t(batch) * outC * outH() * outW());
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        return bytesOf(dtype, gemmM * gemmN * matmulCount);
      default:
        return bytesOf(dtype, elems);
    }
}

void
Layer::lowerToGemm(std::uint64_t &m, std::uint64_t &k, std::uint64_t &n) const
{
    switch (kind) {
      case LayerKind::Conv2d:
        m = std::uint64_t(batch) * outH() * outW();
        k = std::uint64_t(inC) * kernelH * kernelW;
        n = outC;
        return;
      case LayerKind::Linear:
      case LayerKind::BatchedMatmul:
        m = gemmM;
        k = gemmK;
        n = gemmN;
        return;
      default:
        panic("lowerToGemm on non-GEMM layer %s (%s)", name.c_str(),
              toString(kind));
    }
}

} // namespace model
} // namespace ascend
