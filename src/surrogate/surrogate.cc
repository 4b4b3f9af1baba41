/**
 * @file
 * Surrogate cost model implementation.
 */

#include "surrogate/surrogate.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/field.hh"

namespace ascend {
namespace surrogate {

namespace {

/** Most work axes any layer kind exposes. */
constexpr unsigned kMaxAxes = 5;

/**
 * Most off-grid axes a prediction may interpolate over: 2^q corner
 * anchors per level, so q caps the exact-sim bill of a cold query.
 */
constexpr unsigned kMaxOffGrid = 3;

/**
 * Fraction of the error budget the fine/coarse interpolation levels
 * may disagree by before a query falls back to the exact simulator.
 * Richardson's argument says the fine error is roughly a third of the
 * disagreement when the cost surface is smooth; the margin below 1/2
 * absorbs the places where it is not (tiling staircases make cycle
 * curves piecewise, and both levels can miss the same step edge).
 */
constexpr double kBudgetGuard = 0.35;

/**
 * Work quantum of a cube-tiled axis: the default core's 16x16x16
 * fractal rounds every GEMM / channel dimension up to multiples of
 * 16, so the cycle curve along such an axis is a staircase with
 * steps of relative height ~16/w.
 */
constexpr std::uint64_t kCubeTileQuantum = 16;

/**
 * Work quantum of a vector-processed element axis: the default
 * 256-byte datapath covers 128 fp16 lanes per cycle, so element
 * counts quantize in blocks of 128.
 */
constexpr std::uint64_t kVectorLaneQuantum = 128;

/**
 * The work axes of one layer, in a fixed per-kind order. Everything
 * not in the vector (kernel/stride/pad geometry, dtype, activation
 * kind, fused passes) is structural: anchors copy it verbatim.
 * quantum[a] is the hardware rounding granule of axis a — the trust
 * hull refuses to interpolate an off-grid axis whose staircase step
 * (quantum / value) exceeds the error budget, because no smooth
 * interpolant can beat that quantization floor.
 */
struct Features
{
    unsigned n = 0;
    std::array<std::uint64_t, kMaxAxes> v{};
    std::array<std::uint64_t, kMaxAxes> quantum{1, 1, 1, 1, 1};
};

/**
 * Extract the work axes of @p layer. False means the shape has no
 * sound axis decomposition (unsupported coupling between fields) and
 * must use the exact simulator.
 */
bool
extract(const model::Layer &layer, Features &f)
{
    // Byte-volume overrides are absolute, not per-axis: scaling a
    // shape axis would leave them behind and skew the memory charge.
    if (layer.inputBytesOverride || layer.outputBytesOverride)
        return false;
    switch (layer.kind) {
      case model::LayerKind::Conv2d:
        f.n = 5;
        f.v = {layer.batch, layer.inH, layer.inW, layer.inC,
               layer.outC};
        f.quantum = {1, 1, 1, kCubeTileQuantum, kCubeTileQuantum};
        return true;
      case model::LayerKind::DepthwiseConv2d:
        // The factory keeps inC == outC (one channel axis); anything
        // else is not a shape this family models.
        if (layer.inC != layer.outC)
            return false;
        f.n = 4;
        f.v = {layer.batch, layer.inH, layer.inW, layer.inC};
        f.quantum = {1, 1, 1, kCubeTileQuantum};
        return true;
      case model::LayerKind::Linear:
        f.n = 3;
        f.v = {layer.gemmM, layer.gemmK, layer.gemmN};
        f.quantum = {kCubeTileQuantum, kCubeTileQuantum,
                     kCubeTileQuantum};
        return true;
      case model::LayerKind::BatchedMatmul:
        f.n = 4;
        f.v = {layer.matmulCount, layer.gemmM, layer.gemmK,
               layer.gemmN};
        f.quantum = {1, kCubeTileQuantum, kCubeTileQuantum,
                     kCubeTileQuantum};
        return true;
      case model::LayerKind::Pool2d:
        if (layer.inC != layer.outC)
            return false;
        f.n = 4;
        f.v = {layer.batch, layer.inC, layer.inH, layer.inW};
        f.quantum = {1, kCubeTileQuantum, 1, 1};
        return true;
      case model::LayerKind::BatchNorm:
      case model::LayerKind::Activation:
      case model::LayerKind::Elementwise:
      case model::LayerKind::CvOp:
        f.n = 1;
        f.v = {layer.elems};
        f.quantum = {kVectorLaneQuantum};
        return true;
      case model::LayerKind::LayerNorm:
      case model::LayerKind::Softmax:
        // Axes are (rows, rowLen); elems is their product and is
        // recomputed on materialization.
        if (!layer.rowLen || layer.elems % layer.rowLen)
            return false;
        f.n = 2;
        f.v = {layer.elems / layer.rowLen, layer.rowLen};
        f.quantum = {1, kVectorLaneQuantum};
        return true;
    }
    return false;
}

/** Build the anchor layer with axis values @p f on the query's frame. */
model::Layer
materialize(const model::Layer &proto, const Features &f)
{
    model::Layer l = proto;
    switch (l.kind) {
      case model::LayerKind::Conv2d:
        l.batch = unsigned(f.v[0]);
        l.inH = unsigned(f.v[1]);
        l.inW = unsigned(f.v[2]);
        l.inC = unsigned(f.v[3]);
        l.outC = unsigned(f.v[4]);
        break;
      case model::LayerKind::DepthwiseConv2d:
        l.batch = unsigned(f.v[0]);
        l.inH = unsigned(f.v[1]);
        l.inW = unsigned(f.v[2]);
        l.inC = l.outC = unsigned(f.v[3]);
        break;
      case model::LayerKind::Linear:
        l.gemmM = f.v[0];
        l.gemmK = f.v[1];
        l.gemmN = f.v[2];
        break;
      case model::LayerKind::BatchedMatmul:
        l.matmulCount = f.v[0];
        l.gemmM = f.v[1];
        l.gemmK = f.v[2];
        l.gemmN = f.v[3];
        break;
      case model::LayerKind::Pool2d:
        l.batch = unsigned(f.v[0]);
        l.inC = l.outC = unsigned(f.v[1]);
        l.inH = unsigned(f.v[2]);
        l.inW = unsigned(f.v[3]);
        break;
      case model::LayerKind::BatchNorm:
      case model::LayerKind::Activation:
      case model::LayerKind::Elementwise:
      case model::LayerKind::CvOp:
        l.elems = f.v[0];
        break;
      case model::LayerKind::LayerNorm:
      case model::LayerKind::Softmax:
        l.rowLen = f.v[1];
        l.elems = f.v[0] * f.v[1];
        break;
    }
    return l;
}

/** One off-grid axis with its bracketing anchors. */
struct Bracket
{
    unsigned axis = 0;
    std::uint64_t lo = 0, hi = 0;
    double t = 0; ///< log-space position of the query in [lo, hi]
};

/**
 * FNV-1a over the layer's kind and shape fields (the byte overrides
 * are not hashed): the deterministic spot-check sampler (hash, not a
 * counter, so the sampled subset is independent of query order and
 * thread count).
 */
std::uint64_t
shapeHash(const model::Layer &l)
{
    // The historical basis (one digit short of the standard one, as
    // graph's); changing it would resample the spot-checked subset.
    std::uint64_t h = fnv1aU64(1469598103934665603ull,
                               std::uint64_t(l.kind));
    model::forEachShapeField(
        [&h](const char *, auto v) { h = fnv1aU64(h, fieldBits(v)); }, l);
    return h;
}

/**
 * Blend one SimResult field across the corner anchors. Cycle-ish
 * quantities scale as monomials of the shape axes, which are exactly
 * linear in log space, so the blend is geometric when every corner is
 * positive; zero-valued corners (a pipe the program never touches)
 * degrade to the arithmetic mean, which preserves exact zeros.
 */
template <typename Get>
std::uint64_t
blend(const core::SimResult *vals, const double *w, unsigned n,
      Get get)
{
    bool geometric = true;
    for (unsigned i = 0; i < n; ++i)
        if (get(vals[i]) == 0)
            geometric = false;
    double acc = 0;
    for (unsigned i = 0; i < n; ++i)
        acc += w[i] * (geometric ? std::log(double(get(vals[i])))
                                 : double(get(vals[i])));
    const double out = geometric ? std::exp(acc) : acc;
    return std::uint64_t(std::llround(std::max(out, 0.0)));
}

/**
 * Multilinear log-space interpolation between the 2^q corner anchors
 * spanned by @p br. Corner layers run through @p exact, which the
 * session memoizes — dense sweeps re-simulate each grid shape once.
 */
core::SimResult
interpolate(const model::Layer &proto, const Features &f,
            const Bracket *br, unsigned q,
            const Surrogate::ExactFn &exact)
{
    const unsigned corners = 1u << q;
    std::array<core::SimResult, 1u << kMaxOffGrid> vals;
    std::array<double, 1u << kMaxOffGrid> w;
    for (unsigned mask = 0; mask < corners; ++mask) {
        Features cf = f;
        double weight = 1.0;
        for (unsigned i = 0; i < q; ++i) {
            const bool hi = (mask >> i) & 1u;
            cf.v[br[i].axis] = hi ? br[i].hi : br[i].lo;
            weight *= hi ? br[i].t : 1.0 - br[i].t;
        }
        w[mask] = weight;
        vals[mask] = exact(materialize(proto, cf));
    }

    core::SimResult out;
    auto field = [&](auto get) {
        return blend(vals.data(), w.data(), corners, get);
    };
    out.totalCycles =
        field([](const core::SimResult &r) { return r.totalCycles; });
    out.totalFlops =
        field([](const core::SimResult &r) { return r.totalFlops; });
    out.instrsExecuted = field(
        [](const core::SimResult &r) { return r.instrsExecuted; });
    out.barriers =
        field([](const core::SimResult &r) { return r.barriers; });
    for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
        out.pipes[p].busyCycles = field([p](const core::SimResult &r) {
            return r.pipes[p].busyCycles;
        });
        out.pipes[p].finishCycle =
            field([p](const core::SimResult &r) {
                return r.pipes[p].finishCycle;
            });
        out.pipes[p].waitCycles = field([p](const core::SimResult &r) {
            return r.pipes[p].waitCycles;
        });
        out.pipes[p].instrs = field(
            [p](const core::SimResult &r) { return r.pipes[p].instrs; });
    }
    for (std::size_t b = 0; b < isa::kNumBuses; ++b)
        out.busBytes[b] = field(
            [b](const core::SimResult &r) { return r.busBytes[b]; });
    return out;
}

} // anonymous namespace

SurrogateOptions
SurrogateOptions::fromEnv()
{
    SurrogateOptions o;
    o.enabled = envValue<bool>("ASCEND_SURROGATE").value_or(false);
    if (const auto e = envValue<double>(positive("ASCEND_SURROGATE_ERR"))) {
        o.errBudget = *e;
        o.enabled = true;
    }
    o.spotCheckPeriod = envValue<std::uint64_t>("ASCEND_SURROGATE_SPOT")
                            .value_or(o.spotCheckPeriod);
    return o;
}

std::string
fingerprint(const SurrogateOptions &options)
{
    // "sur1" is the algorithm version: bump it when the prediction
    // function changes, so persisted predictions from older code are
    // never served under new keys.
    std::string s;
    s.reserve(96);
    s += "sur1:";
    putU64(s, options.enabled);
    putBits(s, options.errBudget);
    putU64(s, options.gridStepsPerOctave);
    putU64(s, options.spotCheckPeriod);
    putU64(s, options.minQuantize);
    putBits(s, options.minPredictFlops);
    return s;
}

const char *
toString(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Disabled:       return "disabled";
      case Outcome::CacheHit:       return "cache-hit";
      case Outcome::Predicted:      return "predicted";
      case Outcome::Anchor:         return "anchor";
      case Outcome::FallbackSmall:  return "fallback-small";
      case Outcome::FallbackHull:   return "fallback-hull";
      case Outcome::FallbackBudget: return "fallback-budget";
      case Outcome::SpotCheck:      return "spot-check";
    }
    return "?";
}

bool
isExactOutcome(Outcome outcome)
{
    return outcome != Outcome::Predicted && outcome != Outcome::CacheHit;
}

Surrogate::Surrogate(const SurrogateOptions &options)
    : options_(options)
{
}

std::uint64_t
Surrogate::gridValue(long j) const
{
    const double g = double(options_.gridStepsPerOctave);
    return std::uint64_t(std::llround(std::exp2(double(j) / g)));
}

long
Surrogate::gridFloor(std::uint64_t w) const
{
    const double g = double(options_.gridStepsPerOctave);
    long j = long(std::floor(std::log2(double(w)) * g));
    // Seeded from floating-point logs; settle exactly with the
    // integral grid itself.
    while (gridValue(j) > w)
        --j;
    while (gridValue(j + 1) <= w)
        ++j;
    return j;
}

bool
Surrogate::supported(const model::Layer &layer)
{
    Features f;
    return extract(layer, f);
}

bool
Surrogate::onGrid(const model::Layer &layer) const
{
    Features f;
    if (!extract(layer, f))
        return false;
    for (unsigned a = 0; a < f.n; ++a) {
        const std::uint64_t w = f.v[a];
        if (w >= options_.minQuantize && gridValue(gridFloor(w)) != w)
            return false;
    }
    return true;
}

Outcome
Surrogate::run(const model::Layer &layer, const ExactFn &exact,
               core::SimResult &out, double *spot_err_out) const
{
    if (!options_.enabled) {
        out = exact(layer);
        return Outcome::Disabled;
    }
    Features f;
    if (!extract(layer, f)) {
        out = exact(layer);
        return Outcome::FallbackHull;
    }
    if (double(layer.flops()) < options_.minPredictFlops) {
        out = exact(layer);
        return Outcome::FallbackSmall;
    }

    // Bracket every off-grid work axis on the anchor grid, spanning
    // @p step grid exponents (1 = fine, 2 = coarse).
    auto bracket = [this](unsigned axis, long jlo, long step,
                          std::uint64_t w) {
        Bracket b;
        b.axis = axis;
        b.lo = gridValue(jlo);
        long jhi = jlo + step;
        b.hi = gridValue(jhi);
        while (b.hi <= b.lo) // dense grids can repeat small values
            b.hi = gridValue(++jhi);
        b.t = (std::log(double(w)) - std::log(double(b.lo))) /
              (std::log(double(b.hi)) - std::log(double(b.lo)));
        return b;
    };

    Bracket fine[kMaxOffGrid];
    Bracket coarse[kMaxOffGrid];
    unsigned q = 0;
    for (unsigned a = 0; a < f.n; ++a) {
        const std::uint64_t w = f.v[a];
        if (w < options_.minQuantize)
            continue; // structural: anchors keep it verbatim
        const long jlo = gridFloor(w);
        if (gridValue(jlo) == w)
            continue; // the query sits on this grid line
        // Quantization floor: the hardware rounds this axis up in
        // granules of quantum, so the true cycle curve is a
        // staircase with steps of relative height ~quantum/w. Once
        // that exceeds the budget no interpolant between anchors can
        // be trusted — and the two-level disagreement check cannot
        // see it, because both levels smooth over the same steps.
        if (double(f.quantum[a]) > options_.errBudget * double(w)) {
            out = exact(layer);
            return Outcome::FallbackHull;
        }
        if (q == kMaxOffGrid) {
            out = exact(layer);
            return Outcome::FallbackHull;
        }
        fine[q] = bracket(a, jlo, 1, w);
        // Two-step bracket from the nearest even exponent below: a
        // second interpolation level over a wider span whose
        // disagreement with the fine one bounds the local curvature
        // error (Richardson style). The span must genuinely differ
        // from the fine bracket — a one-step coarse level would
        // coincide with it whenever jlo is even and wave every
        // query through — and its endpoints stay on the same grid,
        // so dense sweeps share them.
        coarse[q] = bracket(a, (jlo / 2) * 2, 2, w);
        ++q;
    }
    if (q == 0) {
        // On-grid queries are the table: exact, memoized, and later
        // interpolated between.
        out = exact(layer);
        return Outcome::Anchor;
    }

    const core::SimResult finePred =
        interpolate(layer, f, fine, q, exact);
    const core::SimResult coarsePred =
        interpolate(layer, f, coarse, q, exact);
    const double fc = double(finePred.totalCycles);
    const double cc = double(coarsePred.totalCycles);
    const double disagree =
        std::abs(fc - cc) / std::max(fc, 1.0);
    if (disagree > kBudgetGuard * options_.errBudget) {
        out = exact(layer);
        return Outcome::FallbackBudget;
    }

    if (options_.spotCheckPeriod &&
        shapeHash(layer) % options_.spotCheckPeriod == 0) {
        out = exact(layer);
        if (spot_err_out) {
            const double ec = double(out.totalCycles);
            *spot_err_out =
                ec > 0 ? std::abs(fc - ec) / ec : 0.0;
        }
        return Outcome::SpotCheck;
    }

    out = finePred;
    return Outcome::Predicted;
}

} // namespace surrogate
} // namespace ascend
