/**
 * @file
 * Tests of the surrogate cost-model tier: option parsing and
 * fingerprinting, the anchor grid, SimCache export and layer-key
 * round-tripping, prediction accuracy against the exact simulator,
 * the fallback rules (quantized axes, spot checks), and the cache
 * namespacing that keeps predicted results from ever aliasing exact
 * ones.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/layer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "soc/training_soc.hh"
#include "surrogate/surrogate.hh"

using namespace ascend;

namespace {

/** Scoped environment override; restores (unsets) on destruction. */
struct EnvGuard
{
    std::string name;
    EnvGuard(const std::string &n, const std::string &v) : name(n)
    {
        ::setenv(n.c_str(), v.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name.c_str()); }
};

arch::CoreConfig
coreConfig()
{
    return soc::TrainingSoc().coreConfig();
}

/** A session with a private cache and the given surrogate options. */
runtime::SimSession
makeSession(const surrogate::SurrogateOptions &sur,
            std::shared_ptr<runtime::SimCache> cache = nullptr)
{
    return runtime::SimSession(
        coreConfig(), {},
        cache ? std::move(cache)
              : std::make_shared<runtime::SimCache>(),
        {}, sur);
}

// -------------------------------------------------------- options

TEST(SurrogateOptions, DefaultsAreOff)
{
    const surrogate::SurrogateOptions def;
    EXPECT_FALSE(def.enabled);
    EXPECT_DOUBLE_EQ(def.errBudget, 0.02);
    EXPECT_FALSE(surrogate::SurrogateOptions::fromEnv().enabled);
}

TEST(SurrogateOptions, FromEnvParsesTheKnobs)
{
    {
        EnvGuard on("ASCEND_SURROGATE", "1");
        EXPECT_TRUE(surrogate::SurrogateOptions::fromEnv().enabled);
    }
    {
        EnvGuard err("ASCEND_SURROGATE_ERR", "0.05");
        const auto opts = surrogate::SurrogateOptions::fromEnv();
        EXPECT_TRUE(opts.enabled); // setting a budget implies on
        EXPECT_DOUBLE_EQ(opts.errBudget, 0.05);
    }
    {
        EnvGuard on("ASCEND_SURROGATE", "1");
        EnvGuard spot("ASCEND_SURROGATE_SPOT", "16");
        EXPECT_EQ(surrogate::SurrogateOptions::fromEnv()
                      .spotCheckPeriod,
                  16u);
    }
    EXPECT_FALSE(surrogate::SurrogateOptions::fromEnv().enabled);
}

TEST(SurrogateOptions, FingerprintSeparatesEveryKnob)
{
    surrogate::SurrogateOptions a;
    a.enabled = true;
    surrogate::SurrogateOptions b = a;
    EXPECT_EQ(surrogate::fingerprint(a), surrogate::fingerprint(b));

    b.errBudget = 0.01;
    EXPECT_NE(surrogate::fingerprint(a), surrogate::fingerprint(b));
    b = a;
    b.gridStepsPerOctave = 8;
    EXPECT_NE(surrogate::fingerprint(a), surrogate::fingerprint(b));
    b = a;
    b.spotCheckPeriod = 7;
    EXPECT_NE(surrogate::fingerprint(a), surrogate::fingerprint(b));
    b = a;
    b.minPredictFlops = 1e5;
    EXPECT_NE(surrogate::fingerprint(a), surrogate::fingerprint(b));
}

// ----------------------------------------------------------- grid

TEST(SurrogateGrid, ValuesDoubleEveryOctaveAndFloorBrackets)
{
    const surrogate::SurrogateOptions opts;
    const surrogate::Surrogate sur(opts);
    const long g = long(opts.gridStepsPerOctave);

    // Octave boundaries are exact powers of two; between them the
    // grid is strictly increasing with a bounded ratio (the exact
    // 2^(1/g) spacing plus integer-rounding slack at small values).
    for (long k = 2; k <= 16; ++k)
        EXPECT_EQ(sur.gridValue(k * g), std::uint64_t(1) << k);
    for (long j = 2 * g; j < 16 * g; ++j) {
        EXPECT_LT(sur.gridValue(j), sur.gridValue(j + 1));
        const double ratio = double(sur.gridValue(j + 1)) /
                             double(sur.gridValue(j));
        EXPECT_LE(ratio, std::exp2(1.0 / double(g)) + 0.26);
    }
    for (std::uint64_t w = opts.minQuantize; w <= 5000; ++w) {
        const long jlo = sur.gridFloor(w);
        EXPECT_LE(sur.gridValue(jlo), w);
        EXPECT_GT(sur.gridValue(jlo + 1), w);
    }
}

// ----------------------------------------------- prediction tiers

TEST(SurrogateTier, PredictionsStayWithinBudgetOnASweep)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    sur.spotCheckPeriod = 0; // measure every prediction ourselves
    const runtime::SimSession pred = makeSession(sur);
    const runtime::SimSession exact =
        makeSession(surrogate::SurrogateOptions{});

    unsigned predicted = 0;
    for (std::uint64_t m = 1100; m <= 2400; m += 50) {
        const model::Layer l =
            model::Layer::linear("m", m, 1024, 1024);
        surrogate::Outcome oc;
        const core::SimResult p = pred.runLayer(l, &oc);
        const core::SimResult e = exact.runLayer(l);
        if (oc != surrogate::Outcome::Predicted) {
            EXPECT_EQ(p.totalCycles, e.totalCycles);
            continue;
        }
        ++predicted;
        const double rel =
            std::abs(double(p.totalCycles) - double(e.totalCycles)) /
            double(e.totalCycles);
        EXPECT_LE(rel, sur.errBudget) << "m=" << m;
    }
    EXPECT_GE(predicted, 10u);
}

TEST(SurrogateTier, OnGridQueryIsAnAnchorAndExact)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    const runtime::SimSession pred = makeSession(sur);
    const runtime::SimSession exact =
        makeSession(surrogate::SurrogateOptions{});

    const model::Layer l =
        model::Layer::linear("grid", 2048, 1024, 1024);
    surrogate::Outcome oc;
    const core::SimResult p = pred.runLayer(l, &oc);
    EXPECT_EQ(oc, surrogate::Outcome::Anchor);
    EXPECT_TRUE(surrogate::isExactOutcome(oc));
    EXPECT_EQ(p.totalCycles, exact.runLayer(l).totalCycles);
}

TEST(SurrogateTier, QuantizedAxisFallsBackToExact)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    const runtime::SimSession pred = makeSession(sur);
    const runtime::SimSession exact =
        makeSession(surrogate::SurrogateOptions{});

    // m = 560: the cube tile rounds m up in steps of 16, a ~2.9%
    // staircase — coarser than the 2% budget, so the trust hull must
    // refuse to interpolate and hand the query to the simulator.
    const model::Layer l =
        model::Layer::linear("stairs", 560, 1024, 1024);
    surrogate::Outcome oc;
    const core::SimResult p = pred.runLayer(l, &oc);
    EXPECT_EQ(oc, surrogate::Outcome::FallbackHull);
    EXPECT_EQ(p.totalCycles, exact.runLayer(l).totalCycles);
}

TEST(SurrogateTier, SmallLayersFallBackToExact)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    const runtime::SimSession pred = makeSession(sur);

    surrogate::Outcome oc;
    pred.runLayer(model::Layer::linear("tiny", 33, 40, 48), &oc);
    EXPECT_EQ(oc, surrogate::Outcome::FallbackSmall);
}

TEST(SurrogateTier, ByteOverridesAreOutsideTheHull)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    const runtime::SimSession pred = makeSession(sur);

    model::Layer l = model::Layer::linear("ovr", 1250, 1024, 1024);
    l.inputBytesOverride = 123456789;
    surrogate::Outcome oc;
    pred.runLayer(l, &oc);
    EXPECT_EQ(oc, surrogate::Outcome::FallbackHull);
}

TEST(SurrogateTier, SpotCheckPeriodOneMakesEveryQueryExact)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    sur.spotCheckPeriod = 1;
    const runtime::SimSession pred = makeSession(sur);
    const runtime::SimSession exact =
        makeSession(surrogate::SurrogateOptions{});

    for (std::uint64_t m = 1100; m <= 1600; m += 100) {
        const model::Layer l =
            model::Layer::linear("spot", m, 1024, 1024);
        surrogate::Outcome oc;
        const core::SimResult p = pred.runLayer(l, &oc);
        EXPECT_TRUE(surrogate::isExactOutcome(oc))
            << surrogate::toString(oc);
        EXPECT_EQ(p.totalCycles, exact.runLayer(l).totalCycles);
    }
}

TEST(SurrogateTier, RepeatQueryIsServedFromTheCache)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    sur.spotCheckPeriod = 0;
    const runtime::SimSession pred = makeSession(sur);

    const model::Layer l =
        model::Layer::linear("rep", 1250, 1024, 1024);
    surrogate::Outcome first, second;
    const core::SimResult a = pred.runLayer(l, &first);
    const core::SimResult b = pred.runLayer(l, &second);
    EXPECT_EQ(first, surrogate::Outcome::Predicted);
    EXPECT_EQ(second, surrogate::Outcome::CacheHit);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

TEST(SurrogateTier, EachQueryChargesExactlyItsOutcomeCounter)
{
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    sur.spotCheckPeriod = 0;
    const runtime::SimSession pred = makeSession(sur);
    sur.spotCheckPeriod = 1;
    const runtime::SimSession spot = makeSession(sur);

    const auto outcomeCounts = [] {
        std::map<std::string, std::uint64_t> out;
        for (const runtime::CounterEntry &e : runtime::counterSnapshot())
            if (e.name.rfind("surrogate ", 0) == 0 &&
                e.unit == runtime::CounterUnit::Count)
                out[e.name] = e.value;
        return out;
    };
    std::set<surrogate::Outcome> seen;
    const auto query = [&](const runtime::SimSession &session,
                           const model::Layer &l) {
        const auto before = outcomeCounts();
        surrogate::Outcome oc;
        session.runLayer(l, &oc);
        const auto after = outcomeCounts();
        const std::string charged =
            std::string("surrogate ") + surrogate::toString(oc);
        EXPECT_EQ(after.count(charged), 1u) << charged;
        for (const auto &[name, value] : after) {
            const auto was = before.find(name);
            EXPECT_EQ(value - (was == before.end() ? 0 : was->second),
                      name == charged ? 1u : 0u)
                << name << " after a " << surrogate::toString(oc)
                << " query";
        }
        seen.insert(oc);
    };
    using model::Layer;
    query(pred, Layer::linear("grid", 2048, 1024, 1024));   // anchor
    query(pred, Layer::linear("stairs", 560, 1024, 1024));  // hull
    query(pred, Layer::linear("tiny", 33, 40, 48));         // small
    query(pred, Layer::linear("rep", 1250, 1024, 1024));    // predicted
    query(pred, Layer::linear("rep", 1250, 1024, 1024));    // cache hit
    query(spot, Layer::linear("rep", 1250, 1024, 1024));    // spot check
    EXPECT_EQ(seen, (std::set<surrogate::Outcome>{
                        surrogate::Outcome::Anchor,
                        surrogate::Outcome::FallbackHull,
                        surrogate::Outcome::FallbackSmall,
                        surrogate::Outcome::Predicted,
                        surrogate::Outcome::CacheHit,
                        surrogate::Outcome::SpotCheck}));

    // The spot check also raised the max-error counter.
    bool sawErr = false;
    for (const runtime::CounterEntry &e : runtime::counterSnapshot()) {
        if (e.name != "surrogate max rel err")
            continue;
        sawErr = true;
        EXPECT_EQ(e.kind, runtime::CounterKind::Max);
        EXPECT_EQ(e.determinism, runtime::Determinism::Racy);
        EXPECT_EQ(e.unit, runtime::CounterUnit::Fraction);
    }
    EXPECT_TRUE(sawErr);
}

// ------------------------------------------ determinism and keys

TEST(SurrogateDeterminism, QueryOrderDoesNotChangeResults)
{
    std::vector<model::Layer> layers;
    for (std::uint64_t m = 1100; m <= 2400; m += 100)
        layers.push_back(model::Layer::linear("o", m, 1024, 1024));

    surrogate::SurrogateOptions sur;
    sur.enabled = true;

    const runtime::SimSession fwd = makeSession(sur);
    std::map<std::string, std::uint64_t> forward;
    for (const model::Layer &l : layers)
        forward[runtime::fingerprint(l)] =
            fwd.runLayer(l).totalCycles;

    const runtime::SimSession rev = makeSession(sur);
    std::reverse(layers.begin(), layers.end());
    for (const model::Layer &l : layers)
        EXPECT_EQ(rev.runLayer(l).totalCycles,
                  forward[runtime::fingerprint(l)])
            << l.gemmM;
}

TEST(SurrogateDeterminism, PredictionsNeverAliasExactEntries)
{
    // One shared cache, two sessions: the surrogate session predicts
    // a shape, then a plain session asks for the same shape. The
    // plain session must run (and get) the exact simulation — the
    // prediction lives under a surrogate-fingerprinted key and can
    // never shadow the exact one.
    auto cache = std::make_shared<runtime::SimCache>();
    surrogate::SurrogateOptions sur;
    sur.enabled = true;
    sur.spotCheckPeriod = 0;
    const runtime::SimSession pred = makeSession(sur, cache);
    const runtime::SimSession plain =
        makeSession(surrogate::SurrogateOptions{}, cache);

    const model::Layer l =
        model::Layer::linear("alias", 1250, 1024, 1024);
    surrogate::Outcome oc;
    const core::SimResult predicted = pred.runLayer(l, &oc);
    ASSERT_EQ(oc, surrogate::Outcome::Predicted);

    const core::SimResult viaShared = plain.runLayer(l);
    const core::SimResult reference =
        makeSession(surrogate::SurrogateOptions{}).runLayer(l);
    EXPECT_EQ(viaShared.totalCycles, reference.totalCycles);
    EXPECT_EQ(viaShared.instrsExecuted, reference.instrsExecuted);
    // And the prediction itself was a genuine interpolation, not a
    // cache echo of the exact value.
    EXPECT_NE(predicted.totalCycles, 0u);
}

TEST(SurrogateDeterminism, DisabledSessionMatchesPlainSession)
{
    const runtime::SimSession off =
        makeSession(surrogate::SurrogateOptions{});
    const runtime::SimSession plain(coreConfig(), {},
                                    std::make_shared<runtime::SimCache>());
    for (std::uint64_t m : {600u, 1250u, 2048u}) {
        const model::Layer l =
            model::Layer::linear("off", m, 1024, 1024);
        surrogate::Outcome oc;
        EXPECT_EQ(off.runLayer(l, &oc).totalCycles,
                  plain.runLayer(l).totalCycles);
        EXPECT_EQ(oc, surrogate::Outcome::Disabled);
    }
}

} // namespace
