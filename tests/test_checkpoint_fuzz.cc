/**
 * @file
 * Durable-format fuzz. Every on-disk format is one common/atomic_file
 * frame, and this suite runs every corruption over every format by
 * construction: a row added to formats() is fuzzed by every
 * table-driven test, and bit flips and truncations run one named test
 * per row.
 * The rows are the ASCCKPT elastic checkpoint (loadChecked), the
 * ASCBLOB payload the serving engine persists (loadBlobChecked) and
 * the ASCSIMC SimCache file (loadFile). The corruptions are every
 * single-bit flip, every truncation, appended bytes, zeroed windows,
 * saturated length fields, resealed mutations that pass the checksum
 * and reach the body decoders, and each format's file in every other
 * format's slot.
 *
 * A refusal is a structured ascend::Error{CheckpointCorrupt} from the
 * Checked loaders (with the quiet loader returning false and leaving
 * its output alone), or a cache load that adopts nothing; never a
 * crash, a hang or a silently accepted wrong state. The suite is
 * built with the same sanitizer flags as the rest, so an
 * out-of-bounds parse trips ASan/UBSan here.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.hh"
#include "common/codec.hh"
#include "common/error.hh"
#include "resilience/checkpoint.hh"
#include "runtime/sim_cache.hh"

using namespace ascend;
using resilience::CheckpointStore;
using resilience::RunCheckpoint;

namespace {

/** The identity every pristine artifact is written under. */
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

RunCheckpoint
sampleCheckpoint()
{
    RunCheckpoint s;
    s.runId = kRunId;
    s.sequence = 7;
    s.nextStep = 42;
    s.simTimeSec = 3.5;
    s.activeNodes = {0u, 1u, 2u, 7u};
    s.sparesLeft = 2;
    s.lastCheckpointStep = 40;
    s.lastCheckpointSec = 3.25;
    s.nodeEventCursor = 5;
    s.eccEventCursor = 1;
    s.counters.failovers = 2;
    s.counters.rollbacks = 1;
    s.eventLog = "[e00001] t=0 failover\n";
    return s;
}

/** A payload with structure worth corrupting: lengths and floats. */
std::string
samplePayload()
{
    std::string payload = "serving-state:";
    for (int i = 0; i < 64; ++i)
        payload.push_back(char(i * 7));
    payload += "trailer";
    return payload;
}

/** Two cache entries with every result field nonzero. */
constexpr std::size_t kCacheEntries = 2;

void
fillCache(runtime::SimCache &cache)
{
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
}

enum class Outcome { Loaded, Missing, Corrupt };

/** Classify a Checked load; a refusal must carry its structure. */
Outcome
classify(const std::function<bool()> &checked_load,
         const std::function<bool()> &quiet_load)
{
    try {
        if (checked_load())
            return Outcome::Loaded;
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt) << e.what();
        EXPECT_FALSE(e.context().empty());
        EXPECT_FALSE(quiet_load()) << "quiet loader accepted: "
                                   << e.what();
        return Outcome::Corrupt;
    }
    return Outcome::Missing;
}

/** One durable format: how to write its artifact and load it back. */
struct Format
{
    const char *name;
    /** Body bytes are an opaque payload (any body is well-formed). */
    bool opaqueBody;
    /** Write the pristine artifact into @p slot under kRunId. */
    std::function<void(const std::string &slot)> save;
    /** Load @p slot as the run or code version @p id. */
    std::function<Outcome(const std::string &slot, const std::string &id)>
        load;
};

/** A CheckpointStore whose file is exactly @p slot. */
CheckpointStore
storeAt(const std::string &slot)
{
    const std::filesystem::path p(slot);
    return CheckpointStore(p.parent_path().string(), p.stem().string());
}

const std::vector<Format> &
formats()
{
    static const std::vector<Format> all = {
        {"ASCCKPT", false,
         [](const std::string &slot) {
             ASSERT_TRUE(storeAt(slot).save(sampleCheckpoint()));
         },
         [](const std::string &slot, const std::string &id) {
             const CheckpointStore store = storeAt(slot);
             RunCheckpoint out, quiet;
             quiet.nextStep = 999;
             const Outcome o = classify(
                 [&] { return store.loadChecked(out, id); },
                 [&] { return store.load(quiet, id); });
             EXPECT_EQ(quiet.nextStep, 999u) << "refusal touched out";
             return o;
         }},
        {"ASCBLOB", true,
         [](const std::string &slot) {
             ASSERT_TRUE(storeAt(slot).saveBlob(kRunId, samplePayload()));
         },
         [](const std::string &slot, const std::string &id) {
             const CheckpointStore store = storeAt(slot);
             std::string out, quiet = "untouched";
             const Outcome o = classify(
                 [&] { return store.loadBlobChecked(out, id); },
                 [&] { return store.loadBlob(quiet, id); });
             EXPECT_EQ(quiet, "untouched") << "refusal touched payload";
             return o;
         }},
        {"ASCSIMC", false,
         [](const std::string &slot) {
             runtime::SimCache cache;
             fillCache(cache);
             ASSERT_TRUE(cache.saveFile(slot, kRunId));
         },
         [](const std::string &slot, const std::string &id) {
             if (!std::filesystem::exists(slot))
                 return Outcome::Missing;
             runtime::SimCache cache;
             const std::size_t loaded = cache.loadFile(slot, id);
             EXPECT_EQ(cache.stats().entries, loaded);
             if (loaded == kCacheEntries)
                 return Outcome::Loaded;
             EXPECT_EQ(loaded, 0u) << "partial load";
             return Outcome::Corrupt;
         }},
    };
    return all;
}

/** The pristine artifact of @p f, written into @p slot. */
std::string
pristine(const Format &f, const std::string &slot)
{
    f.save(slot);
    return readFile(slot).value();
}

/** Write @p bytes into @p slot and load it as kRunId. */
Outcome
loadBytes(const Format &f, const std::string &slot,
          const std::string &bytes)
{
    spit(slot, bytes);
    return f.load(slot, kRunId);
}

/** @p file with its trailing checksum recomputed over the rest. */
std::string
reseal(std::string file)
{
    file.resize(file.size() - sizeof(std::uint64_t));
    writeU64(file, fnv1a(file.data(), file.size()));
    return file;
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

/** Every single-bit flip of @p f's file is refused. */
void
expectEveryBitFlipRefused(const Format &f, const std::string &slot)
{
    const std::string file = pristine(f, slot);
    for (std::size_t at = 0; at < file.size(); ++at) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string mutated = file;
            mutated[at] = char(mutated[at] ^ (1 << bit));
            // A checksum over every byte leaves no ignorable bit.
            ASSERT_EQ(loadBytes(f, slot, mutated), Outcome::Corrupt)
                << "flip of bit " << bit << " at offset " << at;
        }
    }
    EXPECT_EQ(loadBytes(f, slot, file), Outcome::Loaded);
}

/** Every truncation of @p f's file is refused; absence is not. */
void
expectEveryTruncationRefused(const Format &f, const std::string &slot)
{
    const std::string file = pristine(f, slot);
    for (std::size_t cut = 0; cut < file.size(); ++cut)
        ASSERT_EQ(loadBytes(f, slot, file.substr(0, cut)),
                  Outcome::Corrupt)
            << "truncated to " << cut << " bytes";

    // The pristine bytes still load after all that fuzzing, and a
    // removed slot is absence, not corruption.
    EXPECT_EQ(loadBytes(f, slot, file), Outcome::Loaded);
    std::filesystem::remove(slot);
    EXPECT_EQ(f.load(slot, kRunId), Outcome::Missing);
}

} // namespace

TEST(CheckpointFuzz, EveryBitFlipInElasticFramingIsCorrupt)
{
    expectEveryBitFlipRefused(format("ASCCKPT"),
                              tempDir("bitflip") + "/slot.ckpt");
}

TEST(CheckpointFuzz, EveryBitFlipInBlobFramingIsCorrupt)
{
    expectEveryBitFlipRefused(format("ASCBLOB"),
                              tempDir("blob_bitflip") + "/slot.ckpt");
}

TEST(CheckpointFuzz, EveryBitFlipInSimCacheFramingIsCorrupt)
{
    expectEveryBitFlipRefused(format("ASCSIMC"),
                              tempDir("simc_bitflip") + "/slot.ckpt");
}

TEST(CheckpointFuzz, EveryTruncationOfElasticFramingIsCorrupt)
{
    expectEveryTruncationRefused(format("ASCCKPT"),
                                 tempDir("truncate") + "/slot.ckpt");
}

TEST(CheckpointFuzz, EveryTruncationOfBlobFramingIsCorrupt)
{
    expectEveryTruncationRefused(format("ASCBLOB"),
                                 tempDir("blob_truncate") + "/slot.ckpt");
}

TEST(CheckpointFuzz, EveryTruncationOfSimCacheFramingIsCorrupt)
{
    expectEveryTruncationRefused(format("ASCSIMC"),
                                 tempDir("simc_truncate") + "/slot.ckpt");
}

TEST(CheckpointFuzz, StructuredMutationsNeverCrashOrPass)
{
    const std::string slot = tempDir("structured") + "/slot.ckpt";
    for (const Format &f : formats()) {
        SCOPED_TRACE(f.name);
        const std::string file = pristine(f, slot);

        // Appended bytes are corruption too, not trailing slack.
        EXPECT_EQ(loadBytes(f, slot, file + "zzzz"), Outcome::Corrupt);
        EXPECT_EQ(loadBytes(f, slot, file + std::string(4, '\0')),
                  Outcome::Corrupt);

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
                ASSERT_EQ(loadBytes(f, slot, mutated), Outcome::Corrupt)
                    << "8 bytes of " << int(fill) << " at " << start;
            }
        }

        // An empty file is corruption (the slot exists but is empty).
        EXPECT_EQ(loadBytes(f, slot, ""), Outcome::Corrupt);
    }
}

TEST(CheckpointFuzz, ResealedMutationsReachTheDecodersSafely)
{
    // A resealed checksum gets a mutation past the frame check and
    // into the version, identity and body decoders. A saturated data
    // field may load as a different well-formed state; what must
    // never happen is a crash or an out-of-bounds read.
    const std::string slot = tempDir("resealed") + "/slot.ckpt";
    for (const Format &f : formats()) {
        SCOPED_TRACE(f.name);
        const std::string file = pristine(f, slot);
        const std::size_t end = file.size() - sizeof(std::uint64_t);
        for (std::size_t start = 8; start + 8 <= end; ++start) {
            std::string mutated = file;
            mutated.replace(start, 8, 8, char(0xff));
            const Outcome o = loadBytes(f, slot, reseal(mutated));
            ASSERT_NE(o, Outcome::Missing) << "at " << start;
        }

        // Every cut of the body, re-framed around its new length: the
        // structured bodies must refuse, an opaque one is data.
        ByteReader r{file, 8};
        std::uint64_t version = 0;
        std::string identity, body;
        ASSERT_TRUE(r.readU64(version) &&
                    r.readBytes(identity, file.size()) &&
                    r.readBytes(body, file.size()));
        for (std::size_t cut = 0; cut < body.size(); ++cut) {
            std::string framed = file.substr(0, 8);
            writeU64(framed, version);
            writeBytes(framed, identity);
            writeBytes(framed, body.substr(0, cut));
            writeU64(framed, 0);
            const Outcome o = loadBytes(f, slot, reseal(framed));
            ASSERT_EQ(o, f.opaqueBody ? Outcome::Loaded : Outcome::Corrupt)
                << "body cut to " << cut << " bytes";
        }
    }
}

TEST(CheckpointFuzz, EveryFormatRefusesEveryOtherFormatsFile)
{
    const std::string dir = tempDir("cross");
    for (const Format &from : formats()) {
        const std::string file = pristine(from, dir + "/from.ckpt");
        for (const Format &into : formats()) {
            if (&from == &into)
                continue;
            SCOPED_TRACE(std::string(from.name) + " in the slot of " +
                         into.name);
            EXPECT_EQ(loadBytes(into, dir + "/into.ckpt", file),
                      Outcome::Corrupt);
        }
    }
}

TEST(CheckpointFuzz, ForeignRunIdIsCorruptionUnderCheckedLoad)
{
    // The bytes are pristine; the identity (a run fingerprint, or the
    // cache's code version) is another one. That is corruption of
    // this slot, not a normal cold start.
    const std::string slot = tempDir("foreign") + "/slot.ckpt";
    for (const Format &f : formats()) {
        SCOPED_TRACE(f.name);
        f.save(slot);
        EXPECT_EQ(f.load(slot, "other-run"), Outcome::Corrupt);
        EXPECT_EQ(f.load(slot, kRunId), Outcome::Loaded);
    }
}
