/**
 * @file
 * Durable-format fuzz. Every on-disk format is one common/atomic_file
 * frame, and this suite runs every corruption over every format by
 * construction: a row added to formats() is fuzzed by every
 * table-driven test, and bit flips and truncations run one named test
 * per row.
 * The rows are the ASCCKPT checkpoint a halted runElastic really
 * wrote, the ASCBLOB checkpoint a halted runFleet really wrote, and
 * the ASCSIMC SimCache file. The corruptions are every single-bit
 * flip, every truncation, appended bytes, zeroed windows, saturated
 * length fields, resealed mutations that pass the checksum and reach
 * the body decoders, and each format's file in every other format's
 * slot.
 *
 * Each corruption is judged twice: the frame reader must name the
 * specific FrameStatus the corruption earns, and the format's own
 * loader must refuse it. For the checkpoint rows the loader is the
 * engine itself: resumed from the damaged slot it must cold-start,
 * which shows as every event line of the run being emitted by this
 * process and a report equal to the uninterrupted run's. Bodies that
 * pass the checksum go through each engine's decoder; whatever they
 * decode to, the run must finish, and the suite is built with the
 * same sanitizer flags as the rest, so an out-of-bounds parse or
 * index trips ASan/UBSan here.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "cluster/elastic_run.hh"
#include "common/atomic_file.hh"
#include "common/codec.hh"
#include "runtime/sim_cache.hh"
#include "serving/fleet.hh"

using namespace ascend;

namespace {

/** The identity the SimCache row is written under. */
const std::string kRunId = "fuzz-run";

std::string
tempDir(const char *test)
{
    const std::string dir =
        ::testing::TempDir() + "ascend_ckpt_fuzz_" + test;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
spit(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

std::size_t
lineCount(const std::string &log)
{
    return std::size_t(std::count(log.begin(), log.end(), '\n'));
}

/** How a format's own loader treated its slot. */
enum class Outcome
{
    Resumed,   ///< adopted the file
    ColdStart, ///< refused it and started from scratch
    Diverged,  ///< adopted a (damaged) state that ran differently
};

// --------------------------------------------------- elastic row

/** A dozen steps on two servers with a death, rollbacks, a spare. */
struct ElasticScenario
{
    cluster::TrainingJob job;
    cluster::ClusterConfig cluster;
    resilience::FaultSchedule faults;

    ElasticScenario()
    {
        job.stepSecondsPerChip = 0.05;
        job.gradientBytes = 4 * kMiB;
        job.samplesPerChipStep = 32;
        cluster.servers = 2;
        resilience::FaultSpec spec;
        spec.seed = 5;
        spec.horizonSec = 1.0;
        spec.cores = 2;
        spec.corePermanentPerSec = 1.0;
        spec.eccUncorrectablePerSec = 2.0;
        faults = resilience::FaultSchedule::generate(spec);
    }

    /** The run's options; @p foreign changes its fingerprint. */
    static cluster::ElasticOptions
    options(bool foreign)
    {
        cluster::ElasticOptions o;
        o.spareNodes = foreign ? 2 : 1;
        o.stateBytes = 64 * kMiB;
        o.checkpoint.enabled = true;
        o.checkpoint.intervalSec = 1e6; // step cadence only
        o.checkpoint.saveSec = 0.01;
        o.checkpoint.restartSec = 0.05;
        o.checkpointEverySteps = 3;
        return o;
    }

    cluster::ElasticRunResult
    run(const cluster::ElasticOptions &o) const
    {
        return cluster::runElastic(job, cluster, 16, 12, faults,
                                   resilience::RetryPolicy{},
                                   resilience::DegradedMode::
                                       ContinueDegraded,
                                   o);
    }
};

const ElasticScenario &
elasticScenario()
{
    static const ElasticScenario scenario;
    return scenario;
}

/** The uninterrupted run's report (index 1: the foreign options). */
const std::string &
elasticReference(bool foreign)
{
    static const std::array<std::string, 2> refs = {
        elasticScenario().run(ElasticScenario::options(false)).report(),
        elasticScenario().run(ElasticScenario::options(true)).report(),
    };
    return refs[foreign ? 1 : 0];
}

/** Write the checkpoint a run halted one event before its end leaves. */
void
saveElastic(const std::string &dir)
{
    const ElasticScenario &sc = elasticScenario();
    cluster::ElasticOptions o = ElasticScenario::options(false);
    const std::size_t events = lineCount(sc.run(o).eventLog);
    ASSERT_GE(events, 3u);
    o.checkpointDir = dir;
    o.haltAfterEvents = unsigned(events - 1);
    ASSERT_TRUE(sc.run(o).halted);
}

/** Resume the elastic engine from @p dir and classify what it did. */
Outcome
loadElastic(const std::string &dir, bool foreign)
{
    cluster::ElasticOptions o = ElasticScenario::options(foreign);
    const std::string &ref = elasticReference(foreign);
    o.checkpointDir = dir;
    std::size_t emitted = 0;
    o.onEvent = [&](const std::string &) { ++emitted; };
    const cluster::ElasticRunResult r = elasticScenario().run(o);
    EXPECT_FALSE(r.halted);
    if (r.report() != ref)
        return Outcome::Diverged;
    return emitted == lineCount(r.eventLog) ? Outcome::ColdStart
                                            : Outcome::Resumed;
}

// --------------------------------------------------- serving row

/** A short overloaded burst on two replicas with a death and hedges. */
struct ServingScenario
{
    std::vector<serving::QosTier> tiers;
    std::vector<serving::Request> arrivals;
    serving::BatchLatencyModel model =
        serving::BatchLatencyModel::linear(2e-3, 5e-4, 8);
    resilience::FaultSchedule faults;

    ServingScenario()
    {
        serving::QosTier premium;
        premium.name = "premium";
        premium.deadlineSec = 0.02;
        premium.share = 0.25;
        premium.sheddable = false;
        premium.reservedSlots = 2;
        serving::QosTier standard;
        standard.name = "standard";
        standard.deadlineSec = 0.01;
        standard.share = 0.75;
        tiers = {premium, standard};
        serving::ArrivalSpec arr;
        arr.seed = 17;
        arr.horizonSec = 0.01;
        arr.ratePerSec = 2.0 * model.saturationRequestsPerSec(2);
        arrivals = serving::generateArrivals(arr, tiers);
        resilience::FaultSpec spec;
        spec.seed = 23;
        spec.horizonSec = 0.01;
        spec.cores = 2;
        spec.corePermanentPerSec = 100.0;
        faults = resilience::FaultSchedule::generate(spec);
    }

    /** The run's options; @p foreign changes its fingerprint. */
    static serving::FleetOptions
    options(bool foreign)
    {
        serving::FleetOptions o;
        o.replicas = 2;
        o.warmSpares = 1;
        o.failoverSec = 1e-3;
        o.retry.maxRetries = foreign ? 3 : 2;
        o.hedge.enabled = true;
        o.hedge.afterSec = 4e-3;
        o.checkpointIntervalSec = 4e-3;
        return o;
    }

    serving::FleetResult
    run(const serving::FleetOptions &o) const
    {
        return serving::runFleet(arrivals, tiers, model, faults, o);
    }
};

const ServingScenario &
servingScenario()
{
    static const ServingScenario scenario;
    return scenario;
}

const std::string &
servingReference(bool foreign)
{
    // Every save logs a line, so the reference persists like the
    // resumed runs do. Tests run as parallel processes, so each takes
    // its own directory.
    static const std::array<std::string, 2> refs = [] {
        std::array<std::string, 2> out;
        const std::string name =
            "serving_ref_" + std::to_string(::getpid());
        for (int i = 0; i < 2; ++i) {
            const std::string dir = tempDir(name.c_str());
            serving::FleetOptions o = ServingScenario::options(i == 1);
            o.checkpointDir = dir;
            out[i] = servingScenario().run(o).report();
            std::filesystem::remove_all(dir);
        }
        return out;
    }();
    return refs[foreign ? 1 : 0];
}

/** Write the checkpoint a run halted halfway through its log leaves. */
void
saveServing(const std::string &dir)
{
    const ServingScenario &sc = servingScenario();
    serving::FleetOptions o = ServingScenario::options(false);
    o.checkpointDir = dir;
    const std::size_t events = lineCount(sc.run(o).eventLog);
    ASSERT_GE(events, 4u);
    o.haltAfterEvents = unsigned(events / 2);
    ASSERT_TRUE(sc.run(o).halted);
}

/** Resume the serving engine from @p dir and classify what it did. */
Outcome
loadServing(const std::string &dir, bool foreign)
{
    serving::FleetOptions o = ServingScenario::options(foreign);
    const std::string &ref = servingReference(foreign);
    o.checkpointDir = dir;
    std::size_t emitted = 0;
    o.onEvent = [&](const std::string &) { ++emitted; };
    const serving::FleetResult r = servingScenario().run(o);
    EXPECT_FALSE(r.halted);
    if (r.report() != ref)
        return Outcome::Diverged;
    return emitted == lineCount(r.eventLog) ? Outcome::ColdStart
                                            : Outcome::Resumed;
}

// --------------------------------------------------- sim-cache row

/** Two cache entries with every result field nonzero. */
constexpr std::size_t kCacheEntries = 2;

void
saveCache(const std::string &slot)
{
    runtime::SimCache cache;
    for (std::size_t i = 0; i < kCacheEntries; ++i) {
        core::SimResult r;
        r.totalCycles = 1000 + i;
        r.totalFlops = 1u << 20;
        r.instrsExecuted = 77;
        r.barriers = 3;
        for (core::PipeStats &p : r.pipes)
            p = {11, 12, 13, 14};
        for (Bytes &b : r.busBytes)
            b = 4096;
        cache.insert("cfg:1,opt:2,lay:" + std::to_string(i) + ",", r);
    }
    ASSERT_TRUE(cache.saveFile(slot, kRunId));
}

Outcome
loadCache(const std::string &slot, bool foreign)
{
    runtime::SimCache cache;
    const std::size_t loaded =
        cache.loadFile(slot, foreign ? "other-run" : kRunId);
    EXPECT_EQ(cache.stats().entries, loaded);
    if (loaded == kCacheEntries)
        return Outcome::Resumed;
    EXPECT_EQ(loaded, 0u) << "partial load";
    return Outcome::ColdStart;
}

// --------------------------------------------------- the table

/** One durable format: how to write its artifact and load it back. */
struct Format
{
    const char *name;
    /** The slot's file name inside its directory. */
    const char *file;
    /** Write the pristine artifact into @p dir. */
    std::function<void(const std::string &dir)> save;
    /**
     * Run the format's own loader over the slot in @p dir as the
     * writer, or (@p foreign) as another run or code version.
     */
    std::function<Outcome(const std::string &dir, bool foreign)> load;
};

const std::vector<Format> &
formats()
{
    static const std::vector<Format> all = {
        {"ASCCKPT", "elastic.ckpt", saveElastic, loadElastic},
        {"ASCBLOB", "serving.ckpt", saveServing, loadServing},
        {"ASCSIMC", "sim_cache.bin",
         [](const std::string &dir) { saveCache(dir + "/sim_cache.bin"); },
         [](const std::string &dir, bool foreign) {
             return loadCache(dir + "/sim_cache.bin", foreign);
         }},
    };
    return all;
}

/** The row of formats() named @p name. */
const Format &
format(const std::string &name)
{
    for (const Format &f : formats())
        if (f.name == name)
            return f;
    ADD_FAILURE() << "no format " << name;
    return formats().front();
}

std::string
slotOf(const Format &f, const std::string &dir)
{
    return dir + "/" + f.file;
}

/** The pristine artifact of @p f, written into @p dir. */
std::string
pristine(const Format &f, const std::string &dir)
{
    std::filesystem::remove_all(dir);
    f.save(dir);
    return readFile(slotOf(f, dir)).value();
}

/** The header a pristine file carries: what its reader expects. */
struct Header
{
    char magic[8];
    std::uint64_t version = 0;
    std::string identity;
    std::size_t bodyAt = 0; ///< offset of the body's length field
};

Header
headerOf(const std::string &file)
{
    Header h;
    std::copy(file.begin(), file.begin() + 8, h.magic);
    ByteReader r{file, 8};
    EXPECT_TRUE(r.readU64(h.version) &&
                r.readBytes(h.identity, file.size()));
    h.bodyAt = r.pos;
    return h;
}

/** readFramed()'s verdict on @p bytes as a file of header @p h. */
FrameStatus
frameStatus(const Header &h, const std::string &slot,
            const std::string &bytes)
{
    spit(slot, bytes);
    std::string body;
    return readFramed(slot, h.magic, h.version, h.identity, body);
}

/**
 * Judge one corruption: the frame reader names @p want, and the
 * format's loader refuses it. The loader verdict follows from the
 * status alone, so it runs once per status in @p loaded.
 */
void
expectRefused(const Format &f, const std::string &dir, const Header &h,
              const std::string &bytes, FrameStatus want,
              std::set<FrameStatus> &loaded, const std::string &what)
{
    ASSERT_EQ(frameStatus(h, slotOf(f, dir), bytes), want) << what;
    if (loaded.insert(want).second) {
        EXPECT_EQ(f.load(dir, false), Outcome::ColdStart)
            << toString(want) << ": " << what;
    }
}

/** @p file with its trailing checksum recomputed over the rest. */
std::string
reseal(std::string file)
{
    file.resize(file.size() - sizeof(std::uint64_t));
    writeU64(file, fnv1a(file.data(), file.size()));
    return file;
}

/** Every single-bit flip of @p f's file is refused. */
void
expectEveryBitFlipRefused(const Format &f, const std::string &dir)
{
    const std::string file = pristine(f, dir);
    const Header h = headerOf(file);
    std::set<FrameStatus> loaded;
    for (std::size_t at = 0; at < file.size(); ++at) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string mutated = file;
            mutated[at] = char(mutated[at] ^ (1 << bit));
            // A checksum over every byte leaves no ignorable bit.
            expectRefused(f, dir, h, mutated,
                          at < 8 ? FrameStatus::BadMagic
                                 : FrameStatus::ChecksumMismatch,
                          loaded,
                          "flip of bit " + std::to_string(bit) +
                              " at offset " + std::to_string(at));
        }
    }
    spit(slotOf(f, dir), file);
    EXPECT_EQ(f.load(dir, false), Outcome::Resumed);
}

/** Every truncation of @p f's file is refused; absence is not. */
void
expectEveryTruncationRefused(const Format &f, const std::string &dir)
{
    const std::string file = pristine(f, dir);
    const Header h = headerOf(file);
    // Magic, version, two lengths and the checksum: anything shorter
    // is Short before the checksum is even located.
    const std::size_t frame_min = 8 + 4 * sizeof(std::uint64_t);
    std::set<FrameStatus> loaded;
    for (std::size_t cut = 0; cut < file.size(); ++cut)
        expectRefused(f, dir, h, file.substr(0, cut),
                      cut < frame_min ? FrameStatus::Short
                                      : FrameStatus::ChecksumMismatch,
                      loaded, "truncated to " + std::to_string(cut));

    // The pristine bytes still load after all that fuzzing, and a
    // removed slot is absence: a cold start too.
    spit(slotOf(f, dir), file);
    EXPECT_EQ(f.load(dir, false), Outcome::Resumed);
    std::filesystem::remove(slotOf(f, dir));
    std::string body;
    EXPECT_EQ(readFramed(slotOf(f, dir), h.magic, h.version, h.identity,
                         body),
              FrameStatus::Missing);
    EXPECT_EQ(f.load(dir, false), Outcome::ColdStart);
}

} // namespace

TEST(CheckpointFuzz, EveryBitFlipInElasticFramingIsCorrupt)
{
    expectEveryBitFlipRefused(format("ASCCKPT"), tempDir("bitflip"));
}

TEST(CheckpointFuzz, EveryBitFlipInBlobFramingIsCorrupt)
{
    expectEveryBitFlipRefused(format("ASCBLOB"), tempDir("blob_bitflip"));
}

TEST(CheckpointFuzz, EveryBitFlipInSimCacheFramingIsCorrupt)
{
    expectEveryBitFlipRefused(format("ASCSIMC"), tempDir("simc_bitflip"));
}

TEST(CheckpointFuzz, EveryTruncationOfElasticFramingIsCorrupt)
{
    expectEveryTruncationRefused(format("ASCCKPT"), tempDir("truncate"));
}

TEST(CheckpointFuzz, EveryTruncationOfBlobFramingIsCorrupt)
{
    expectEveryTruncationRefused(format("ASCBLOB"),
                                 tempDir("blob_truncate"));
}

TEST(CheckpointFuzz, EveryTruncationOfSimCacheFramingIsCorrupt)
{
    expectEveryTruncationRefused(format("ASCSIMC"),
                                 tempDir("simc_truncate"));
}

TEST(CheckpointFuzz, StructuredMutationsNeverCrashOrPass)
{
    const std::string dir = tempDir("structured");
    for (const Format &f : formats()) {
        SCOPED_TRACE(f.name);
        const std::string file = pristine(f, dir);
        const Header h = headerOf(file);
        std::set<FrameStatus> loaded;

        // Appended bytes are corruption too, not trailing slack.
        expectRefused(f, dir, h, file + "zzzz",
                      FrameStatus::ChecksumMismatch, loaded, "zzzz");
        expectRefused(f, dir, h, file + std::string(4, '\0'),
                      FrameStatus::ChecksumMismatch, loaded, "4 zeros");

        // Zeroed windows (torn write / sparse-file damage), and
        // saturated 8-byte fields at every offset, which covers every
        // length and count: none may drive a giant allocation.
        for (const char fill : {'\0', char(0xff)}) {
            for (std::size_t start = 0; start + 8 <= file.size();
                 ++start) {
                std::string mutated = file;
                mutated.replace(start, 8, 8, fill);
                if (mutated == file)
                    continue; // already all zeros there
                expectRefused(f, dir, h, mutated,
                              start < 8 ? FrameStatus::BadMagic
                                        : FrameStatus::ChecksumMismatch,
                              loaded,
                              "8 bytes of " + std::to_string(int(fill)) +
                                  " at " + std::to_string(start));
            }
        }

        // An empty file is corruption (the slot exists but is empty).
        expectRefused(f, dir, h, "", FrameStatus::Short, loaded, "empty");
    }
}

TEST(CheckpointFuzz, ResealedMutationsReachTheDecodersSafely)
{
    // A resealed checksum gets a mutation past the frame check and
    // into the version, identity and body decoders. The header fields
    // are checked in order, so the first one a window touches names
    // the refusal; a window inside the body passes the frame and
    // reaches the format's decoder, which may refuse it or adopt a
    // different well-formed state. What must never happen is a
    // crash, a hang or an out-of-bounds read.
    const std::string dir = tempDir("resealed");
    for (const Format &f : formats()) {
        SCOPED_TRACE(f.name);
        const std::string file = pristine(f, dir);
        const Header h = headerOf(file);
        const std::size_t end = file.size() - sizeof(std::uint64_t);
        const std::size_t body_at = h.bodyAt + sizeof(std::uint64_t);
        std::set<FrameStatus> loaded;
        unsigned refused = 0, adopted = 0;
        for (std::size_t start = 8; start + 8 <= end; ++start) {
            std::string mutated = file;
            mutated.replace(start, 8, 8, char(0xff));
            mutated = reseal(mutated);
            const std::string what = "at " + std::to_string(start);
            if (start < 16) {
                expectRefused(f, dir, h, mutated,
                              FrameStatus::UnknownVersion, loaded, what);
            } else if (start < 24) { // the identity's length
                expectRefused(f, dir, h, mutated, FrameStatus::Short,
                              loaded, what);
            } else if (start < h.bodyAt) {
                expectRefused(f, dir, h, mutated,
                              FrameStatus::ForeignIdentity, loaded, what);
            } else if (start < body_at) { // the body's length
                expectRefused(f, dir, h, mutated, FrameStatus::Short,
                              loaded, what);
            } else {
                ASSERT_EQ(frameStatus(h, slotOf(f, dir), mutated),
                          FrameStatus::Ok)
                    << what;
                const Outcome o = f.load(dir, false);
                o == Outcome::ColdStart ? ++refused : ++adopted;
            }
        }
        // Saturated counts and lengths inside every body are refused.
        EXPECT_GT(refused, 0u);

        // Every cut of the body, re-framed around its new length: the
        // frame is intact, and every body decoder must refuse.
        ByteReader r{file, h.bodyAt};
        std::string body;
        ASSERT_TRUE(r.readBytes(body, file.size()));
        for (std::size_t cut = 0; cut < body.size(); ++cut) {
            std::string framed = file.substr(0, h.bodyAt);
            writeBytes(framed, body.substr(0, cut));
            writeU64(framed, 0);
            framed = reseal(framed);
            ASSERT_EQ(frameStatus(h, slotOf(f, dir), framed),
                      FrameStatus::Ok);
            ASSERT_EQ(f.load(dir, false), Outcome::ColdStart)
                << "body cut to " << cut << " bytes";
        }
    }
}

TEST(CheckpointFuzz, EveryFormatRefusesEveryOtherFormatsFile)
{
    const std::string from_dir = tempDir("cross_from");
    const std::string into_dir = tempDir("cross_into");
    for (const Format &from : formats()) {
        const std::string file = pristine(from, from_dir);
        for (const Format &into : formats()) {
            if (&from == &into)
                continue;
            SCOPED_TRACE(std::string(from.name) + " in the slot of " +
                         into.name);
            const Header h = headerOf(pristine(into, into_dir));
            std::set<FrameStatus> loaded;
            expectRefused(into, into_dir, h, file, FrameStatus::BadMagic,
                          loaded, "cross");
        }
    }
}

TEST(CheckpointFuzz, ForeignRunIdIsCorruptionUnderCheckedLoad)
{
    // The bytes are pristine; the identity (a run fingerprint, or the
    // cache's code version) is another one. The reader names that,
    // and the loader cold-starts instead of adopting the slot.
    const std::string dir = tempDir("foreign");
    for (const Format &f : formats()) {
        SCOPED_TRACE(f.name);
        const std::string file = pristine(f, dir);
        Header other = headerOf(file);
        other.identity += "-other";
        EXPECT_EQ(frameStatus(other, slotOf(f, dir), file),
                  FrameStatus::ForeignIdentity);
        EXPECT_EQ(f.load(dir, true), Outcome::ColdStart);
        spit(slotOf(f, dir), file);
        EXPECT_EQ(f.load(dir, false), Outcome::Resumed);
    }
}

TEST(CheckpointFuzz, ServingV1FileColdStarts)
{
    // ASCBLOB v1 bodies carried a second hedge id list that v2 drops.
    // A v1 file left by an older build is refused by its version word
    // before any body byte is read, and the run cold-starts.
    const Format &f = format("ASCBLOB");
    const std::string dir = tempDir("blob_v1");
    const std::string file = pristine(f, dir);
    const Header h = headerOf(file);
    ASSERT_EQ(h.version, 2u);
    std::string v1 = file;
    std::string word;
    writeU64(word, 1);
    v1.replace(8, word.size(), word);
    std::set<FrameStatus> loaded;
    expectRefused(f, dir, h, reseal(v1), FrameStatus::UnknownVersion,
                  loaded, "v1");
}

/**
 * Resume the serving engine from its pristine checkpoint, resealed
 * with word @p field of the first queued request set to @p value. The
 * ASCBLOB v2 body holds 28 u64/double scalars, then the queue as a
 * count and 7-word requests (id, tier, arrival, deadline, attempt,
 * eligible, flags).
 */
Outcome
resumeWithFirstRequestWord(const char *test, std::size_t field,
                           std::uint64_t value)
{
    const Format &f = format("ASCBLOB");
    const std::string dir = tempDir(test);
    const std::string file = pristine(f, dir);
    const std::size_t body_at =
        headerOf(file).bodyAt + sizeof(std::uint64_t);
    ByteReader r{file, body_at + 28 * sizeof(std::uint64_t)};
    std::uint64_t queued = 0;
    EXPECT_TRUE(r.readU64(queued));
    EXPECT_GT(queued, 0u) << "the halted run must leave a queue";
    std::string word;
    writeU64(word, value);
    std::string mutated = file;
    mutated.replace(r.pos + field * sizeof(std::uint64_t), word.size(),
                    word);
    spit(slotOf(f, dir), reseal(mutated));
    return f.load(dir, false);
}

TEST(CheckpointFuzz, ServingDecoderRefusesOutOfRangeTier)
{
    // A first queued request naming tier 0xffffffff passes the frame;
    // the decoder must refuse it rather than let batching and
    // re-offers index the tier list out of range.
    EXPECT_EQ(resumeWithFirstRequestWord("bad_tier", 1, 0xffffffffu),
              Outcome::ColdStart);
}

TEST(CheckpointFuzz, ServingDecoderRefusesNarrowingAttempt)
{
    // A u32 attempt count cannot hold 2^32: the decoder must refuse
    // the word instead of adopting it truncated to 0.
    EXPECT_EQ(resumeWithFirstRequestWord("narrow_attempt", 4,
                                         std::uint64_t(1) << 32),
              Outcome::ColdStart);
}
