/**
 * @file
 * Unit tests for the core simulator's scheduling semantics: in-order
 * pipes, cross-pipe flags as counting semaphores, barriers, dispatch
 * bandwidth, deadlock detection, and statistics accounting. The
 * CoreSimFuzz golden pins the exact tier (compiler + core sim) bit
 * for bit on seeded random programs and on every zoo layer.
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/codec.hh"
#include "common/rng.hh"
#include "compiler/layer_compiler.hh"
#include "core/core_sim.hh"
#include "graph/decoder.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"
#include "obs/tracer.hh"
#include "runtime/sim_cache.hh"
#include "runtime/sim_session.hh"
#include "runtime/thread_pool.hh"

#include "golden_test.hh"
#include "result_diff.hh"
#include "scoped_trace.hh"

namespace ascend {
namespace {

using core::CoreSim;
using core::SimResult;
using isa::Bus;
using isa::Pipe;
using isa::Program;

arch::CoreConfig
testConfig()
{
    return arch::makeCoreConfig(arch::CoreVersion::Max);
}

TEST(CoreSim, EmptyProgramTakesZeroCycles)
{
    CoreSim sim(testConfig());
    const SimResult r = sim.run(Program("empty"));
    EXPECT_EQ(r.totalCycles, 0u);
    EXPECT_EQ(r.instrsExecuted, 0u);
}

TEST(CoreSim, SerialExecutionOnOnePipe)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 100);
    p.exec(Pipe::Cube, 50);
    const SimResult r = sim.run(p);
    EXPECT_EQ(r.pipe(Pipe::Cube).busyCycles, 150u);
    // Dispatch adds at most a couple of cycles.
    EXPECT_GE(r.totalCycles, 150u);
    EXPECT_LE(r.totalCycles, 155u);
}

TEST(CoreSim, IndependentPipesOverlap)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 100);
    p.exec(Pipe::Vector, 100);
    p.exec(Pipe::Mte1, 100);
    const SimResult r = sim.run(p);
    // All three should overlap almost perfectly.
    EXPECT_LE(r.totalCycles, 110u);
}

TEST(CoreSim, FlagOrdersProducerBeforeConsumer)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Mte1, 100);
    p.setFlag(Pipe::Mte1, 0);
    p.waitFlag(Pipe::Cube, 0);
    p.exec(Pipe::Cube, 50);
    const SimResult r = sim.run(p);
    // Cube cannot start before the load completes.
    EXPECT_GE(r.totalCycles, 150u);
    EXPECT_LE(r.totalCycles, 160u);
}

TEST(CoreSim, ReversedProgramOrderStillSynchronizes)
{
    // The consumer is dispatched before the producer: the wait must
    // still block until the set executes.
    CoreSim sim(testConfig());
    Program p;
    p.waitFlag(Pipe::Cube, 0);
    p.exec(Pipe::Cube, 10);
    p.exec(Pipe::Mte1, 200);
    p.setFlag(Pipe::Mte1, 0);
    const SimResult r = sim.run(p);
    EXPECT_GE(r.totalCycles, 210u);
}

TEST(CoreSim, CountingSemaphoreAllowsDepthTwo)
{
    CoreSim sim(testConfig());
    Program p;
    // Two free tokens: two loads proceed before any consume.
    p.setFlag(Pipe::Scalar, 1);
    p.setFlag(Pipe::Scalar, 1);
    for (int i = 0; i < 4; ++i) {
        p.waitFlag(Pipe::Mte1, 1);
        p.exec(Pipe::Mte1, 100);
        p.setFlag(Pipe::Mte1, 0);
        p.waitFlag(Pipe::Cube, 0);
        p.exec(Pipe::Cube, 100);
        p.setFlag(Pipe::Cube, 1);
    }
    const SimResult r = sim.run(p);
    // Perfect depth-2 pipeline: ~100 (first load) + 4 x 100 compute.
    EXPECT_GE(r.totalCycles, 500u);
    EXPECT_LE(r.totalCycles, 520u);
}

TEST(CoreSim, BarrierDrainsAllPipes)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 300);
    p.exec(Pipe::Vector, 100);
    p.barrier();
    p.exec(Pipe::Mte1, 50);
    const SimResult r = sim.run(p);
    // MTE1 can only start after the 300-cycle cube op.
    EXPECT_GE(r.pipe(Pipe::Mte1).finishCycle, 350u);
}

TEST(CoreSim, BarrierAtProgramEndIsHarmless)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 10);
    p.barrier();
    const SimResult r = sim.run(p);
    EXPECT_GE(r.totalCycles, 10u);
}

TEST(CoreSimDeath, WaitWithoutSetDeadlocks)
{
    CoreSim sim(testConfig());
    Program p("dead");
    p.waitFlag(Pipe::Cube, 7);
    p.exec(Pipe::Cube, 10);
    EXPECT_DEATH(sim.run(p), "deadlocked");
    // The warning names the blocked pipe, its flag and queue depth.
    EXPECT_DEATH(sim.run(p), "deadlock: pipe cube blocked on WAIT flag 7 "
                             "\\(tag -\\), 2 queued");
}

TEST(CoreSimDeath, SetAfterBarrierDeadlocks)
{
    // The barrier stops dispatch, so a wait before it can never see a
    // set after it.
    CoreSim sim(testConfig());
    Program p("dead2");
    p.waitFlag(Pipe::Cube, 3);
    p.barrier();
    p.setFlag(Pipe::Mte1, 3);
    EXPECT_DEATH(sim.run(p), "deadlocked");
    EXPECT_DEATH(sim.run(p), "deadlock: pipe cube blocked on WAIT flag 3 "
                             "\\(tag -\\), 1 queued");
}

TEST(CoreSim, DispatchBandwidthLimitsTinyInstructions)
{
    auto cfg = testConfig();
    cfg.dispatchPerCycle = 1;
    CoreSim sim(cfg);
    Program p;
    // 1000 zero-ish-latency ops on alternating pipes: dispatch at
    // 1/cycle becomes the bottleneck.
    for (int i = 0; i < 500; ++i) {
        p.exec(Pipe::Cube, 1);
        p.exec(Pipe::Vector, 1);
    }
    const SimResult r = sim.run(p);
    EXPECT_GE(r.totalCycles, 999u);
}

TEST(CoreSim, StatsAccounting)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 10, 4096, {{Bus::L1Read, 128}});
    p.exec(Pipe::Mte3, 5, 0, {{Bus::UbRead, 64}, {Bus::ExtOut, 64}});
    const SimResult r = sim.run(p);
    EXPECT_EQ(r.totalFlops, 4096u);
    EXPECT_EQ(r.bus(Bus::L1Read), 128u);
    EXPECT_EQ(r.bus(Bus::UbRead), 64u);
    EXPECT_EQ(r.bus(Bus::ExtOut), 64u);
    EXPECT_EQ(r.extBytes(), 64u);
    EXPECT_EQ(r.pipe(Pipe::Cube).instrs, 1u);
    EXPECT_EQ(r.instrsExecuted, 2u);
}

TEST(CoreSim, UtilizationAndSeconds)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 100);
    p.exec(Pipe::Vector, 50);
    const SimResult r = sim.run(p);
    EXPECT_NEAR(r.utilization(Pipe::Cube), 1.0, 0.05);
    EXPECT_NEAR(r.utilization(Pipe::Vector), 0.5, 0.05);
    EXPECT_NEAR(r.seconds(1.0), r.totalCycles * 1e-9, 1e-12);
}

TEST(CoreSim, AccumulateSumsResults)
{
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Cube, 10, 100, {{Bus::L1Read, 8}});
    SimResult total = sim.run(p);
    const Cycles first = total.totalCycles;
    total.accumulate(sim.run(p));
    EXPECT_EQ(total.totalCycles, 2 * first);
    EXPECT_EQ(total.totalFlops, 200u);
    EXPECT_EQ(total.bus(Bus::L1Read), 16u);
}

TEST(CoreSim, SetBeforeWaitCompletesInstantly)
{
    CoreSim sim(testConfig());
    Program p;
    p.setFlag(Pipe::Scalar, 5);
    p.waitFlag(Pipe::Cube, 5);
    p.exec(Pipe::Cube, 10);
    const SimResult r = sim.run(p);
    EXPECT_LE(r.totalCycles, 15u);
}

TEST(CoreSim, WaiterTakesEarliestToken)
{
    // Two pipes SET one flag. MTE1 is dispatched first but finishes
    // late; MTE2 is dispatched second and finishes first, so its token
    // is pushed after a later one. The first WAIT must take the
    // earliest token, the second the late one.
    CoreSim sim(testConfig());
    Program p;
    p.exec(Pipe::Mte1, 500);
    p.setFlag(Pipe::Mte1, 4);
    p.exec(Pipe::Mte2, 10);
    p.setFlag(Pipe::Mte2, 4);
    p.waitFlag(Pipe::Cube, 4);
    p.exec(Pipe::Cube, 20);
    p.waitFlag(Pipe::Cube, 4);
    p.exec(Pipe::Cube, 20);
    const SimResult r = sim.run(p);
    // MTE2's token (~11) starts the first cube op and MTE1's (~500)
    // the second, so the cube finishes at ~520. Taking MTE1's token
    // first would run both ops after it and finish at ~540.
    EXPECT_EQ(r.pipe(Pipe::Cube).busyCycles, 40u);
    EXPECT_GE(r.pipe(Pipe::Cube).finishCycle, 520u);
    EXPECT_LE(r.pipe(Pipe::Cube).finishCycle, 530u);
}

TEST(CoreSim, ManyTokensAccumulate)
{
    CoreSim sim(testConfig());
    Program p;
    for (int i = 0; i < 10; ++i)
        p.setFlag(Pipe::Scalar, 2);
    for (int i = 0; i < 10; ++i)
        p.waitFlag(Pipe::Vector, 2);
    p.exec(Pipe::Vector, 1);
    const SimResult r = sim.run(p);
    EXPECT_EQ(r.pipe(Pipe::Vector).instrs, 1u);
}

// Deterministic repeatability: the simulator is a pure function.
TEST(CoreSim, Deterministic)
{
    CoreSim sim(testConfig());
    Program p;
    for (int i = 0; i < 50; ++i) {
        p.exec(Pipe::Mte1, 7);
        p.setFlag(Pipe::Mte1, 0);
        p.waitFlag(Pipe::Cube, 0);
        p.exec(Pipe::Cube, 13);
    }
    const SimResult a = sim.run(p);
    const SimResult b = sim.run(p);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.pipe(Pipe::Cube).busyCycles, b.pipe(Pipe::Cube).busyCycles);
}

// ------------------------------------------------ golden fuzz

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Hash of every SimResult field. */
std::uint64_t
resultHash(const SimResult &r, std::uint64_t h = kFnv1aBasis)
{
    h = fnv1aU64(h, r.totalCycles);
    h = fnv1aU64(h, r.totalFlops);
    h = fnv1aU64(h, r.instrsExecuted);
    h = fnv1aU64(h, r.barriers);
    for (const core::PipeStats &ps : r.pipes) {
        h = fnv1aU64(h, ps.busyCycles);
        h = fnv1aU64(h, ps.finishCycle);
        h = fnv1aU64(h, ps.waitCycles);
        h = fnv1aU64(h, ps.instrs);
    }
    for (const Bytes b : r.busBytes)
        h = fnv1aU64(h, b);
    return h;
}

/**
 * Hash of a program's name and every field of every instruction of
 * its flattened sequence.
 */
std::uint64_t
programHash(const Program &p, std::uint64_t h = kFnv1aBasis)
{
    h = fnv1a(p.name().data(), p.name().size(), h);
    const Program flat = p.flatten();
    for (const isa::Instr &i : flat.instrs()) {
        h = fnv1aU64(h, std::uint64_t(i.op));
        h = fnv1aU64(h, std::uint64_t(i.pipe));
        h = fnv1aU64(h, i.flagId);
        h = fnv1aU64(h, i.cycles);
        h = fnv1aU64(h, i.flops);
        h = fnv1aU64(h, i.numBusUses);
        for (unsigned b = 0; b < i.numBusUses; ++b) {
            h = fnv1aU64(h, std::uint64_t(i.busUses[b].bus));
            h = fnv1aU64(h, i.busUses[b].bytes);
        }
        const std::string tag = i.tag ? i.tag : "-";
        h = fnv1a(tag.data(), tag.size() + 1, h);
    }
    return h;
}

/** One random bus use. */
isa::BusUse
randomBus(Rng &rng)
{
    const isa::Bus bus = isa::Bus(rng.uniform(isa::kNumBuses));
    return {bus, rng.uniform(1 << 16)};
}

/** Append one random EXEC on @p pipe with 0 to 3 bus uses. */
void
randomExec(Rng &rng, Program &p, Pipe pipe)
{
    Cycles cycles = 0;
    if (!rng.chance(0.1))
        cycles = 1 + rng.uniform(rng.chance(0.2) ? 2000 : 60);
    const Flops flops = rng.chance(0.5) ? rng.uniform(1 << 20) : 0;
    switch (rng.uniform(4)) {
      case 0:
        p.exec(pipe, cycles, flops);
        break;
      case 1:
        p.exec(pipe, cycles, flops, {randomBus(rng)}, "x1");
        break;
      case 2: {
        const isa::BusUse a = randomBus(rng);
        p.exec(pipe, cycles, flops, {a, randomBus(rng)});
        break;
      }
      default: {
        const isa::BusUse a = randomBus(rng);
        const isa::BusUse b = randomBus(rng);
        p.exec(pipe, cycles, flops, {a, b, randomBus(rng)}, "x3");
        break;
      }
    }
}

/**
 * The flags of one random program: their ids, each id's one consumer
 * pipe, an optional single producer pipe per id (otherwise any pipe
 * may SET it) and the SET-minus-WAIT balance so far in program order.
 */
struct FuzzFlags
{
    std::vector<std::uint8_t> ids;
    std::vector<Pipe> consumerOf = std::vector<Pipe>(isa::kNumFlags);
    std::vector<int> producerOf = std::vector<int>(isa::kNumFlags, -1);
    std::vector<int> balance = std::vector<int>(isa::kNumFlags, 0);
};

/**
 * Draw 1 to 6 flag ids, each with one consumer pipe, and open @p p
 * with 0 to 2 pre-seeded scalar tokens per id.
 */
FuzzFlags
randomFlags(Rng &rng, Program &p)
{
    FuzzFlags f;
    const unsigned nflags = 1 + unsigned(rng.uniform(6));
    std::vector<Pipe> consumer;
    for (unsigned i = 0; i < nflags; ++i) {
        f.ids.push_back(std::uint8_t(rng.uniform(isa::kNumFlags)));
        consumer.push_back(Pipe(rng.uniform(isa::kNumPipes)));
    }
    // Two slots may draw the same id; the first slot's consumer wins.
    for (unsigned i = nflags; i-- > 0;)
        f.consumerOf[f.ids[i]] = consumer[i];
    for (unsigned i = 0; i < nflags; ++i) {
        for (unsigned s = unsigned(rng.uniform(3)); s > 0; --s) {
            p.setFlag(Pipe::Scalar, f.ids[i], "seed");
            ++f.balance[f.ids[i]];
        }
    }
    return f;
}

/**
 * Append one random instruction: an EXEC, a SET, a WAIT (only while
 * the id's SETs so far outnumber its WAITs) or, rarely and if
 * @p barriers, a barrier.
 */
void
randomInstr(Rng &rng, Program &p, FuzzFlags &f, bool barriers = true)
{
    const std::uint64_t kind = rng.uniform(100);
    const Pipe pipe = Pipe(rng.uniform(isa::kNumPipes));
    const std::uint8_t id = f.ids[rng.uniform(f.ids.size())];
    if (kind < 45) {
        randomExec(rng, p, pipe);
    } else if (kind < 72) {
        p.setFlag(f.producerOf[id] < 0 ? pipe : Pipe(f.producerOf[id]), id);
        ++f.balance[id];
    } else if (kind < 98) {
        if (f.balance[id] > 0) {
            p.waitFlag(f.consumerOf[id], id);
            --f.balance[id];
        }
    } else if (barriers) {
        p.barrier();
    }
}

/**
 * A seeded random program that cannot deadlock. Each flag id has one
 * consumer pipe and is SET by any pipe, so tokens arrive out of time
 * order; a WAIT is emitted only while the id's SETs so far in program
 * order outnumber its WAITs. With one consumer per id that rules out
 * deadlock, barriers included. Some ids start with pre-seeded scalar
 * tokens, and barriers fall mid-stream.
 */
Program
randomProgram(Rng &rng)
{
    Program p("fuzz");
    FuzzFlags f = randomFlags(rng, p);
    const unsigned len = 20 + unsigned(rng.uniform(400));
    for (unsigned n = 0; n < len; ++n)
        randomInstr(rng, p, f);
    return p;
}

std::string
randomRow(std::uint64_t seed)
{
    Rng rng(seed);
    const Program p = randomProgram(rng);
    std::string row = "rand seed=" + std::to_string(seed);
    row += " instrs=" + std::to_string(p.size());
    for (const unsigned dpc : {1u, 2u, 4u}) {
        arch::CoreConfig cfg = testConfig();
        cfg.dispatchPerCycle = dpc;
        const SimResult r = CoreSim(cfg).run(p);
        row += " d" + std::to_string(dpc) + "=" + hex64(resultHash(r));
    }
    return row;
}

struct FuzzGraph
{
    std::string label;
    graph::Graph graph;
};

std::vector<FuzzGraph>
fuzzGraphs()
{
    namespace zoo = graph::zoo;
    graph::DecoderConfig dec;
    graph::DecoderConfig dec8;
    dec8.batch = 8;
    return {{"resnet50-b1", zoo::resnet50Graph(1)},
            {"resnet50-b4-int8", zoo::resnet50Graph(4, DataType::Int8)},
            {"mobilenetv2-b1", zoo::mobilenetV2Graph(1)},
            {"vgg16-b1", zoo::vgg16Graph(1)},
            {"gesturenet-b1", zoo::gestureNetGraph(1)},
            {"bert-base-b1-s128", zoo::bertBaseGraph(1, 128)},
            {"bert-large-b1-s128", zoo::bertLargeGraph(1, 128)},
            {"prefill-b1-p128", graph::prefillGraph(dec, 128)},
            {"decode-b1-c129", graph::decodeGraph(dec, 129)},
            {"decode-b8-c1024", graph::decodeGraph(dec8, 1024)}};
}

/** The distinct lowered layers of @p g, first occurrence kept. */
std::vector<model::Layer>
distinctLayers(const graph::Graph &g)
{
    std::vector<model::Layer> out;
    std::set<std::string> seen;
    for (const model::Layer &l : graph::toNetwork(g).layers)
        if (seen.insert(runtime::fingerprint(l)).second)
            out.push_back(l);
    return out;
}

struct FuzzOptions
{
    const char *label;
    compiler::CompileOptions options;
};

std::vector<FuzzOptions>
fuzzOptions()
{
    compiler::CompileOptions sparse;
    sparse.sparsity.weightDensity = 0.5;
    sparse.sparsity.structured = true;
    compiler::CompileOptions vector;
    vector.mapGemmToVector = true;
    return {{"default", {}}, {"sparse", sparse}, {"vector", vector}};
}

/**
 * One golden row: the program and result hashes of every distinct
 * layer of @p fg compiled for @p v under @p fo. The layers also run
 * through one SimSession on the process pool (ASCEND_THREADS wide),
 * so workers reuse their per-thread buffers across layers; each
 * pooled result must equal the direct one.
 */
std::string
layerRow(const FuzzGraph &fg, arch::CoreVersion v, const FuzzOptions &fo)
{
    const std::vector<model::Layer> layers = distinctLayers(fg.graph);
    const arch::CoreConfig cfg = arch::makeCoreConfig(v);
    const compiler::LayerCompiler lc(cfg, fo.options);
    const CoreSim sim(cfg);
    std::uint64_t prog = kFnv1aBasis;
    std::uint64_t res = kFnv1aBasis;
    std::uint64_t instrs = 0;
    std::vector<std::uint64_t> direct;
    for (const model::Layer &l : layers) {
        const Program p = lc.compile(l);
        const SimResult r = sim.run(p);
        instrs += p.size();
        prog = programHash(p, prog);
        res = resultHash(r, res);
        direct.push_back(resultHash(r));
    }

    std::string row = fg.label + " " + arch::toString(v);
    row += " " + std::string(fo.label);
    const runtime::SimSession session(
        cfg, fo.options, std::make_shared<runtime::SimCache>());
    std::vector<std::uint64_t> pooled(layers.size());
    runtime::parallelFor(layers.size(), [&](std::size_t i) {
        pooled[i] = resultHash(session.runLayer(layers[i]));
    });
    EXPECT_EQ(pooled, direct) << row;

    row += " layers=" + std::to_string(layers.size());
    row += " instrs=" + std::to_string(instrs);
    row += " prog=" + hex64(prog) + " sim=" + hex64(res);
    return row;
}

/**
 * Seeded random programs and every distinct zoo and decoder layer, on
 * four presets under three option sets, are frozen in
 * tests/golden/core_sim_fuzz.txt: a rewrite of the compiler or the
 * core-sim kernel must reproduce each program and SimResult bit for
 * bit. Regenerate after an intended model change with
 *     ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_core_sim
 */
TEST(CoreSimFuzz, MatchesGolden)
{
    std::string rows =
        "# CoreSim result hashes of seeded random programs at dispatch\n"
        "# widths 1/2/4, and program + result hashes of every distinct\n"
        "# zoo and decoder layer per preset and option set\n"
        "# (tests/test_core_sim.cc).\n"
        "# Regenerate: ASCEND_UPDATE_GOLDEN=1 ./build/tests/test_core_sim\n";
    for (std::uint64_t seed = 1; seed <= 128; ++seed)
        rows += randomRow(seed) + "\n";
    for (const FuzzGraph &fg : fuzzGraphs())
        for (const arch::CoreVersion v :
             {arch::CoreVersion::Lite, arch::CoreVersion::Mini,
              arch::CoreVersion::Std, arch::CoreVersion::Max})
            for (const FuzzOptions &fo : fuzzOptions())
                rows += layerRow(fg, v, fo) + "\n";

    const std::string path =
        std::string(ASCEND_GOLDEN_DIR) + "/core_sim_fuzz.txt";
    expectGolden(path, rows);
}

// ------------------------------------------- steady-state fast-forward

/**
 * Whether runs may fast-forward. An active obs::Tracer (ASCEND_TRACE)
 * makes every run step the flattened program; the suite then pins
 * that stepped path to the same results.
 */
bool
fastForwardOn()
{
    return obs::Tracer::current() == nullptr;
}

/**
 * run(p) against run(p.flatten()) on @p sim: every field must match.
 * Returns the blocked run's work counts.
 */
core::RunStats
expectMatchesFlattened(const CoreSim &sim, const Program &p,
                       const std::string &where)
{
    core::RunStats stats;
    const SimResult fast = sim.run(p, &stats);
    const SimResult flat = sim.run(p.flatten());
    EXPECT_EQ(resultDiff(fast, flat), "") << where;
    EXPECT_EQ(fast.instrsExecuted, p.size()) << where;
    EXPECT_LE(stats.steppedInstrs, p.size()) << where;
    if (!fastForwardOn()) {
        EXPECT_EQ(stats.steppedInstrs, p.size()) << where;
        EXPECT_EQ(stats.extrapolatedTrips, 0u) << where;
    }
    return stats;
}

/**
 * Append 1 to 4 segments to @p p, each a run of random instructions or
 * (up to 3 deep) a repeat block of 1 to 64 trips around further
 * segments. A block body ends with the SETs or WAITs that bring each
 * id's balance back to its value at entry: every trip's WAITs are
 * covered as the first's were, and no queue grows from trip to trip.
 * @p mult is the product of the enclosing trips; it caps the
 * flattened size.
 */
void
randomSegments(Rng &rng, Program &p, FuzzFlags &f, bool barriers,
               unsigned depth, std::uint64_t mult)
{
    for (unsigned s = 1 + unsigned(rng.uniform(4)); s > 0; --s) {
        if (depth < 3 && rng.chance(0.5)) {
            const std::uint64_t trips =
                1 + rng.uniform(std::min<std::uint64_t>(64, 512 / mult));
            const std::vector<int> entry = f.balance;
            p.beginBlock(trips);
            randomSegments(rng, p, f, barriers, depth + 1, mult * trips);
            for (const std::uint8_t id : f.ids) {
                while (f.balance[id] < entry[id]) {
                    const int pipe = f.producerOf[id];
                    p.setFlag(pipe < 0 ? Pipe(rng.uniform(isa::kNumPipes))
                                       : Pipe(pipe),
                              id);
                    ++f.balance[id];
                }
                while (f.balance[id] > entry[id]) {
                    p.waitFlag(f.consumerOf[id], id);
                    --f.balance[id];
                }
            }
            p.endBlock();
        } else {
            for (unsigned n = 1 + unsigned(rng.uniform(24)); n > 0; --n)
                randomInstr(rng, p, f, barriers);
        }
    }
}

/**
 * A seeded random block program: the fuzz generator's flags, seeds and
 * instruction mix, nested up to 3 deep. In about half the programs
 * each id has one producer pipe, the shape the fast-forward
 * extrapolates; the rest keep multi-producer ids. A quarter keep the
 * generator's barriers.
 */
Program
randomBlockProgram(Rng &rng)
{
    Program p("blocks");
    FuzzFlags f = randomFlags(rng, p);
    if (rng.chance(0.5))
        for (const std::uint8_t id : f.ids)
            f.producerOf[id] = int(rng.uniform(isa::kNumPipes));
    randomSegments(rng, p, f, rng.chance(0.25), 0, 1);
    return p;
}

TEST(CoreSimFastForward, RandomBlockProgramsMatchFlattened)
{
    std::size_t programs = 0, extrapolated = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const Program p = randomBlockProgram(rng);
        if (!p.hasBlocks())
            continue;
        for (const unsigned dpc : {1u, 2u, 4u}) {
            arch::CoreConfig cfg = testConfig();
            cfg.dispatchPerCycle = dpc;
            const core::RunStats st = expectMatchesFlattened(
                CoreSim(cfg), p,
                "seed " + std::to_string(seed) + " d" + std::to_string(dpc));
            ++programs;
            extrapolated += st.extrapolatedTrips > 0;
        }
    }
    // The generator must keep exercising the extrapolation itself, not
    // only the step-every-trip paths.
    EXPECT_GT(programs, 600u);
    if (fastForwardOn()) {
        EXPECT_GT(extrapolated, programs / 5);
    }
}

/**
 * Flattened instructions outside every leaf block (a block with no
 * block inside). If only leaf blocks were extrapolated, each of these
 * would still be stepped.
 */
std::uint64_t
outsideLeafBlocks(const Program &p)
{
    const std::vector<isa::Block> &blocks = p.blocks();
    std::vector<std::uint64_t> mult(p.code().size(), 1);
    std::vector<bool> inLeaf(p.code().size(), false);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const bool leaf = b + 1 == blocks.size() ||
                          blocks[b + 1].begin >= blocks[b].end;
        for (std::size_t i = blocks[b].begin; i < blocks[b].end; ++i) {
            mult[i] *= blocks[b].trips;
            inLeaf[i] = inLeaf[i] || leaf;
        }
    }
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < mult.size(); ++i)
        if (!inLeaf[i])
            n += mult[i];
    return n;
}

TEST(CoreSimFastForward, ZooLayersMatchFlattened)
{
    // Every program of the CoreSimFuzz zoo rows.
    std::uint64_t flat = 0, stepped = 0, outside = 0;
    for (const FuzzGraph &fg : fuzzGraphs()) {
        const std::vector<model::Layer> layers = distinctLayers(fg.graph);
        for (const arch::CoreVersion v :
             {arch::CoreVersion::Lite, arch::CoreVersion::Mini,
              arch::CoreVersion::Std, arch::CoreVersion::Max}) {
            const arch::CoreConfig cfg = arch::makeCoreConfig(v);
            const CoreSim sim(cfg);
            for (const FuzzOptions &fo : fuzzOptions()) {
                const compiler::LayerCompiler lc(cfg, fo.options);
                for (const model::Layer &l : layers) {
                    const Program p = lc.compile(l);
                    const core::RunStats st = expectMatchesFlattened(
                        sim, p,
                        fg.label + " " + arch::toString(v) + " " +
                            fo.label + " " + l.name);
                    flat += p.size();
                    stepped += st.steppedInstrs;
                    outside += outsideLeafBlocks(p);
                }
            }
        }
    }
    // Fewer steps than the instructions outside leaf blocks: the
    // fast-forward fired at two or more nesting levels.
    if (fastForwardOn()) {
        EXPECT_LT(stepped, outside);
        EXPECT_LT(stepped * 3, flat);
    }
}

TEST(CoreSimFastForward, StepsUnderATenthOfTheDseNetworks)
{
    // The seven networks of the perf benchmark's dse-exact workload, at
    // the Std preset.
    namespace zoo = graph::zoo;
    graph::DecoderConfig dec;
    graph::DecoderConfig dec8;
    dec8.batch = 8;
    const std::vector<graph::Graph> nets = {
        zoo::resnet50Graph(1),       zoo::resnet50Graph(16),
        zoo::mobilenetV2Graph(1),    zoo::bertBaseGraph(1, 128),
        zoo::bertBaseGraph(4, 384),  graph::prefillGraph(dec, 512),
        graph::decodeGraph(dec8, 2048)};
    const arch::CoreConfig cfg = arch::makeCoreConfig(arch::CoreVersion::Std);
    const compiler::LayerCompiler lc(cfg);
    const CoreSim sim(cfg);
    std::uint64_t flat = 0;
    core::RunStats stats;
    for (const graph::Graph &g : nets) {
        for (const model::Layer &l : distinctLayers(g)) {
            const Program p = lc.compile(l);
            sim.run(p, &stats);
            flat += p.size();
        }
    }
    if (!fastForwardOn()) {
        EXPECT_EQ(stats.steppedInstrs, flat);
        return;
    }
    EXPECT_GT(stats.extrapolatedTrips, 0u);
    EXPECT_LE(stats.steppedInstrs * 10, flat)
        << stats.steppedInstrs << " stepped of " << flat;
}

TEST(CoreSimFastForward, NeverUnderATracer)
{
    if (!obs::kTraceCompiledIn)
        GTEST_SKIP() << "tracer compiled out";
    const arch::CoreConfig cfg = testConfig();
    const Program p = compiler::LayerCompiler(cfg).compile(
        model::Layer::linear("gemm", 512, 512, 512));
    ASSERT_TRUE(p.hasBlocks());
    const CoreSim sim(cfg);
    obs::Tracer &tracer = obs::Tracer::instance();
    core::RunStats stats;
    SimResult a, b;
    std::string traced, flat;
    {
        ScopedTrace scope;
        a = sim.run(p, &stats);
        traced = tracer.json();
        EXPECT_GT(tracer.spanCount(), 0u);
        tracer.clear();
        b = sim.run(p.flatten());
        flat = tracer.json();
    }
    EXPECT_EQ(resultDiff(a, b), "");
    EXPECT_EQ(stats.extrapolatedTrips, 0u);
    EXPECT_EQ(stats.steppedInstrs, p.size());
    EXPECT_TRUE(traced == flat) << "blocked and flat traces differ";
    // Without the tracer the same program is fast-forwarded.
    core::RunStats fast;
    EXPECT_EQ(resultDiff(sim.run(p, &fast), b), "");
    if (fastForwardOn()) {
        EXPECT_GT(fast.extrapolatedTrips, 0u);
        EXPECT_LT(fast.steppedInstrs, p.size());
    }
}

TEST(CoreSimFastForward, NestedBlocksExtrapolateAtBothLevels)
{
    // 64 x 64 trips of a two-pipe handshake: if only the inner block
    // were extrapolated, every outer trip would still step its inner
    // block's first trips and its own tail.
    Program p("nest");
    p.setFlag(Pipe::Scalar, 1, "seed");
    p.setFlag(Pipe::Scalar, 1, "seed");
    p.beginBlock(64);
    p.beginBlock(64);
    p.waitFlag(Pipe::Mte1, 1);
    p.exec(Pipe::Mte1, 30, 0, {{Bus::L1Read, 64}});
    p.setFlag(Pipe::Mte1, 0);
    p.waitFlag(Pipe::Cube, 0);
    p.exec(Pipe::Cube, 40, 512);
    p.setFlag(Pipe::Cube, 1);
    p.endBlock();
    p.exec(Pipe::Vector, 25, 0, {{Bus::UbWrite, 32}});
    p.endBlock();
    ASSERT_EQ(p.size(), 2u + 64 * (64 * 6 + 1));
    for (const unsigned dpc : {1u, 2u, 4u}) {
        arch::CoreConfig cfg = testConfig();
        cfg.dispatchPerCycle = dpc;
        const core::RunStats st = expectMatchesFlattened(
            CoreSim(cfg), p, "d" + std::to_string(dpc));
        if (fastForwardOn()) {
            EXPECT_LT(st.steppedInstrs, 64u * 6) << "d" << dpc;
        }
    }
}

TEST(CoreSimFastForward, ShrinkingMarginExtrapolatesOnlyToTheFlip)
{
    // The cube starts far behind its dispatch slot and catches up by
    // one cycle per trip: every early trip takes each max() the same
    // way, with the same per-trip deltas, but the pipe-vs-dispatch
    // margin shrinks until dispatch wins. Extrapolating past the flip
    // would finish the cube ~200 cycles early; jumping to it, then
    // stepping until the new steady state settles, steps five trips.
    Program p("catch-up");
    p.exec(Pipe::Cube, 200);
    p.beginBlock(400);
    p.exec(Pipe::Cube, 1);
    p.exec(Pipe::Vector, 1);
    p.endBlock();
    arch::CoreConfig cfg = testConfig();
    cfg.dispatchPerCycle = 1;
    const core::RunStats st =
        expectMatchesFlattened(CoreSim(cfg), p, "catch-up");
    if (fastForwardOn()) {
        EXPECT_GT(st.extrapolatedTrips, 0u);
        EXPECT_LE(st.steppedInstrs, 1 + 2 * 5u);
    }
}

TEST(CoreSimFastForward, FlipInTheLastTripIsStepped)
{
    // The cube's margin over its dispatch slot starts at 199 after the
    // second trip and shrinks by 2 per trip, so it holds for 99 more
    // trips; the flip falls in the block's last trip, where dispatch
    // wins by one cycle. Extrapolating that trip too would finish the
    // cube, and the program, one cycle early.
    Program p("flip");
    p.exec(Pipe::Cube, 205);
    p.beginBlock(102);
    for (int i = 0; i < 3; ++i)
        p.exec(Pipe::Vector, 1);
    p.exec(Pipe::Cube, 2);
    p.endBlock();
    arch::CoreConfig cfg = testConfig();
    cfg.dispatchPerCycle = 1;
    const core::RunStats st = expectMatchesFlattened(CoreSim(cfg), p, "flip");
    EXPECT_EQ(CoreSim(cfg).run(p.flatten()).totalCycles, 4u * 102 + 2);
    if (fastForwardOn()) {
        EXPECT_EQ(st.extrapolatedTrips, 99u);
        EXPECT_LE(st.steppedInstrs, 1 + 3 * 4u);
    }
}

TEST(CoreSimFastForward, FallingWaitStallSumsExactly)
{
    // MTE2's clock starts 39 cycles past its dispatch slot, and the
    // gap closes by one cycle per trip. From the third trip on the
    // cube is ready at its own dispatch slot and waits for MTE2's
    // token, so its WAIT stall falls by one cycle per trip until the
    // two meet. The stalls of the extrapolated trips sum as a series
    // with negative growth.
    Program p("falling-stall");
    p.exec(Pipe::Mte2, 40);
    p.beginBlock(60);
    p.exec(Pipe::Mte2, 40);
    p.setFlag(Pipe::Mte2, 2);
    for (int i = 0; i < 37; ++i)
        p.exec(Pipe::Vector, 1);
    p.waitFlag(Pipe::Cube, 2);
    p.exec(Pipe::Cube, 1);
    p.endBlock();
    arch::CoreConfig cfg = testConfig();
    cfg.dispatchPerCycle = 1;
    const core::RunStats st =
        expectMatchesFlattened(CoreSim(cfg), p, "falling-stall");
    if (fastForwardOn()) {
        EXPECT_GT(st.extrapolatedTrips, 0u);
        EXPECT_LT(st.steppedInstrs * 4, p.size());
    }
}

TEST(CoreSimFastForward, AlternatingTripsSettleAsPairs)
{
    // A double-buffered vector layer of equal tiles: with two UB slots
    // in flight, the trip deltas alternate between two values, so trip
    // by trip the block never settles. Pairs of trips repeat exactly.
    const arch::CoreConfig base = testConfig();
    const Program p = compiler::LayerCompiler(base).compile(
        model::Layer::activation("relu", 1 << 20, model::ActKind::Relu));
    ASSERT_EQ(p.blocks().size(), 1u);
    ASSERT_EQ(p.blocks()[0].trips, 64u);
    for (const unsigned dpc : {1u, 2u, 4u}) {
        arch::CoreConfig cfg = base;
        cfg.dispatchPerCycle = dpc;
        const core::RunStats st = expectMatchesFlattened(
            CoreSim(cfg), p, "d" + std::to_string(dpc));
        if (fastForwardOn()) {
            EXPECT_GT(st.extrapolatedTrips, 0u) << "d" << dpc;
            EXPECT_LT(st.steppedInstrs * 6, p.size()) << "d" << dpc;
        }
    }
}

TEST(CoreSimFastForward, StaleQueuedTokensBlockExtrapolation)
{
    // Four pre-seeded tokens let the fast cube consume ahead of its
    // slow producer; the pipe clocks move by fixed amounts per trip
    // from the start, but the queued seed times do not. Extrapolating
    // on the pipe clocks alone would miss the cube becoming
    // token-bound once the seeds run out.
    Program p("stale");
    for (int i = 0; i < 4; ++i)
        p.setFlag(Pipe::Scalar, 3, "seed");
    p.beginBlock(200);
    p.exec(Pipe::Mte2, 10);
    p.setFlag(Pipe::Mte2, 3);
    p.waitFlag(Pipe::Cube, 3);
    p.exec(Pipe::Cube, 1);
    p.endBlock();
    for (const unsigned dpc : {1u, 4u}) {
        arch::CoreConfig cfg = testConfig();
        cfg.dispatchPerCycle = dpc;
        const core::RunStats st = expectMatchesFlattened(
            CoreSim(cfg), p, "d" + std::to_string(dpc));
        EXPECT_EQ(st.extrapolatedTrips > 0, fastForwardOn()) << "d" << dpc;
    }
}

TEST(CoreSimFastForward, MultiProducerFlagStepsTheFlattenedProgram)
{
    // Flag 0 has two producer pipes. Stepped trip by trip, the cube's
    // WAIT would take MTE2's early token; the flat run, which
    // dispatches everything first, hands it MTE1's late one. Such a
    // program must run flat.
    Program p("two-producers");
    p.beginBlock(3);
    p.setFlag(Pipe::Mte3, 1);
    p.waitFlag(Pipe::Mte2, 1);
    p.exec(Pipe::Mte2, 10);
    p.setFlag(Pipe::Mte2, 0);
    p.exec(Pipe::Mte1, 500);
    p.setFlag(Pipe::Mte1, 0);
    p.waitFlag(Pipe::Cube, 0);
    p.exec(Pipe::Cube, 1);
    p.waitFlag(Pipe::Cube, 0);
    p.endBlock();
    const core::RunStats st =
        expectMatchesFlattened(CoreSim(testConfig()), p, "two-producers");
    EXPECT_EQ(st.extrapolatedTrips, 0u);
    EXPECT_EQ(st.steppedInstrs, p.size());
}

TEST(CoreSimFastForward, BarrierInABlockStepsEveryTrip)
{
    Program p("barrier");
    p.beginBlock(50);
    p.exec(Pipe::Cube, 7);
    p.barrier();
    p.exec(Pipe::Vector, 3);
    p.endBlock();
    const core::RunStats st =
        expectMatchesFlattened(CoreSim(testConfig()), p, "barrier");
    EXPECT_EQ(st.extrapolatedTrips, 0u);
    EXPECT_EQ(st.steppedInstrs, p.size());
}

} // anonymous namespace
} // namespace ascend
