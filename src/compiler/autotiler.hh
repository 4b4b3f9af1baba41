/**
 * @file
 * Auto-tiling search (paper Section 5.1): "the dedicated compiler
 * technique, called 'Auto Tiling', is used to transfer big tasks into
 * small fractals ... this technology offers the best tiling and
 * scheduling for any program by intelligently searching legitimate
 * mapping space."
 *
 * The production stack searches with reinforcement learning; this
 * implementation searches the legitimate mapping space exhaustively
 * (it is small once tiles are constrained to fractal multiples that
 * fit the L0 buffers) by *simulating* each candidate program on the
 * cycle-level core model and keeping the fastest. The heuristic
 * selectTile() is the search's seed and fallback.
 */

#ifndef ASCEND_COMPILER_AUTOTILER_HH
#define ASCEND_COMPILER_AUTOTILER_HH

#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"

namespace ascend {
namespace compiler {

/** Outcome of an auto-tiling search. */
struct TileSearchResult
{
    GemmTile best;
    Cycles bestCycles = 0;
    GemmTile heuristic;
    Cycles heuristicCycles = 0;
    unsigned candidatesTried = 0;

    double
    speedupOverHeuristic() const
    {
        return bestCycles ? double(heuristicCycles) / double(bestCycles)
                          : 1.0;
    }
};

/**
 * Searches tilings for GEMM-like layers on one core configuration.
 */
class AutoTiler
{
  public:
    explicit AutoTiler(const arch::CoreConfig &config,
                       CompileOptions options = {});

    /**
     * Enumerate legitimate tiles for @p layer (fractal multiples that
     * fit the double-buffered L0s), simulate each, and return the
     * fastest together with the heuristic baseline. The space holds
     * at most 6 tiles per dimension (216 in all), so every one is
     * simulated. Throws ascend::Error(ConfigValidation) when @p layer
     * is not GEMM-like.
     */
    TileSearchResult search(const model::Layer &layer) const;

    /** Compile @p layer with an explicitly chosen tile. */
    isa::Program compileWithTile(const model::Layer &layer,
                                 const GemmTile &tile) const;

  private:
    arch::CoreConfig config_;
    CompileOptions options_;
    core::CoreSim sim_;
};

} // namespace compiler
} // namespace ascend

#endif // ASCEND_COMPILER_AUTOTILER_HH
