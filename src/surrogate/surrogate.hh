/**
 * @file
 * Error-bounded surrogate cost model: O(1) layer-cycle prediction
 * with exact-simulation fallback.
 *
 * The cycle-level core sim is exact but serial per layer, so a
 * 10^5-point design-space sweep or a million-request serving sim is
 * gated on re-simulating near-identical layer shapes. This module
 * replaces most of those simulations with multilinear interpolation
 * in log-shape space between *canonical anchor shapes*: every work
 * axis of a query layer (batch, spatial dims, channels, GEMM dims,
 * element counts) is bracketed on a fixed geometric grid
 * (`gridStepsPerOctave` points per factor of two), and the exact
 * simulator is only consulted at the bracketing grid shapes. Anchor
 * results are memoized in the shared SimCache, so a dense sweep pays
 * one exact simulation per grid point instead of one per query —
 * and that cache *is* the interpolation table (self-calibration:
 * every fallback enriches it).
 *
 * Error-budget contract: a prediction is only trusted when two
 * independent interpolation levels agree. The fine estimate brackets
 * each off-grid axis at one grid step, the coarse estimate at two;
 * Richardson-style, their disagreement bounds the local curvature
 * error. Queries whose disagreement exceeds a guard fraction of the
 * budget (`ASCEND_SURROGATE_ERR`, default 2%) fall back to the full
 * cycle-level simulation, as do shapes outside the trusted hull
 * (unsupported kinds, too many off-grid axes, axes quantized by the
 * hardware tile more coarsely than the budget, too little work for
 * smooth scaling). A deterministic 1-in-`spotCheckPeriod` sample of
 * accepted predictions is additionally re-derived exactly and the
 * observed relative error surfaced through ASCEND_SIM_STATS.
 *
 * Determinism contract: a prediction is a pure function of
 * (layer shape, core config, options) — anchor shapes are derived
 * from the query alone and anchor values come from the deterministic
 * exact simulator — so surrogate-backed results are byte-identical
 * at any ASCEND_THREADS and independent of cache warmth or query
 * order. State (the SimCache) only ever changes *speed*, never
 * values.
 */

#ifndef ASCEND_SURROGATE_SURROGATE_HH
#define ASCEND_SURROGATE_SURROGATE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/core_sim.hh"
#include "model/layer.hh"

namespace ascend {
namespace surrogate {

/** Knobs of the surrogate tier; all fingerprinted into cache keys. */
struct SurrogateOptions
{
    /** Master switch; off reproduces the exact path bit-for-bit. */
    bool enabled = false;

    /**
     * Relative cycle-error budget. Predictions whose two-level
     * interpolation disagreement exceeds a guard fraction of this
     * value fall back to the exact simulator.
     */
    double errBudget = 0.02;

    /**
     * Anchor-grid density: grid points per factor of two. Denser
     * grids shrink the bracket a query interpolates across —
     * worst-case error scales roughly with bracket width when the
     * cycle surface has tiling steps — at the cost of more anchor
     * simulations per octave of swept shape range.
     */
    unsigned gridStepsPerOctave = 4;

    /**
     * Deterministically spot-check one in this many accepted
     * predictions against the exact sim (0 disables spot checks).
     * Spot-checked queries return the exact result.
     */
    std::uint64_t spotCheckPeriod = 64;

    /** Axis values below this are structural, never interpolated. */
    std::uint64_t minQuantize = 4;

    /**
     * Layers with fewer FLOPs than this go to the exact simulator:
     * small programs are dominated by pipeline fill and dispatch
     * quanta, not smooth work scaling (and are cheap anyway).
     */
    double minPredictFlops = 1e7;

    /**
     * ASCEND_SURROGATE=1 enables; ASCEND_SURROGATE_ERR=<rel> (> 0)
     * sets the budget and enables; ASCEND_SURROGATE_SPOT=<n> sets the
     * spot-check period. Unset: defaults above; malformed: throws.
     */
    static SurrogateOptions fromEnv();
};

/**
 * Exact fingerprint of the surrogate configuration (plus an
 * algorithm version), mixed into cache keys so predicted results can
 * never alias exact ones, also across sessions sharing a cache.
 */
std::string fingerprint(const SurrogateOptions &options);

/** How one runLayer query was answered. */
enum class Outcome : std::uint8_t {
    Disabled,       ///< surrogate off: plain exact path
    CacheHit,       ///< memoized result (exact or predicted) re-served
    Predicted,      ///< O(1) interpolation between anchor simulations
    Anchor,         ///< query sits on the grid: exact sim, doubles as
                    ///< an interpolation-table anchor
    FallbackSmall,  ///< below minPredictFlops: exact
    FallbackHull,   ///< outside the trusted hull (unsupported kind,
                    ///< too many off-grid axes, or an axis quantized
                    ///< more coarsely than the budget): exact
    FallbackBudget, ///< interpolation levels disagree beyond the
                    ///< error budget: exact
    SpotCheck,      ///< sampled for calibration: exact, error recorded
};

const char *toString(Outcome outcome);

/** True when the outcome carries an exact (not predicted) result. */
bool isExactOutcome(Outcome outcome);

/**
 * The predictor. Stateless beyond its options: anchor values live in
 * the caller's SimCache (reached through the exact callback), which
 * is what makes predictions order- and thread-independent.
 */
class Surrogate
{
  public:
    /** Exact compile-and-simulate callback (memoized by the caller). */
    using ExactFn =
        std::function<core::SimResult(const model::Layer &)>;

    explicit Surrogate(const SurrogateOptions &options);

    /**
     * Answer one layer query: predict in O(1) from anchor
     * simulations, or fall back to @p exact per the hull and budget
     * rules above. @p out is filled either way.
     *
     * @param spot_err_out On a SpotCheck outcome receives the
     *        observed relative cycle error |pred - exact| / exact;
     *        left untouched otherwise.
     */
    Outcome run(const model::Layer &layer, const ExactFn &exact,
                core::SimResult &out,
                double *spot_err_out = nullptr) const;

    const SurrogateOptions &options() const { return options_; }

    /** True if the layer kind has a feature extraction. */
    static bool supported(const model::Layer &layer);

    /**
     * True when every work axis of @p layer sits on the anchor grid
     * (such a query is simulated exactly and memoized — it *is* an
     * interpolation-table entry).
     */
    bool onGrid(const model::Layer &layer) const;

    /** The grid shape value for exponent @p j: round(2^(j/G)). */
    std::uint64_t gridValue(long j) const;

    /** Largest exponent j with gridValue(j) <= @p w (w >= 1). */
    long gridFloor(std::uint64_t w) const;

  private:
    SurrogateOptions options_;
};

} // namespace surrogate
} // namespace ascend

#endif // ASCEND_SURROGATE_SURROGATE_HH
