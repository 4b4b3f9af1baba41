/**
 * @file
 * Unit tests for the common substrate: types, logging, stats, table
 * rendering, the deterministic RNG, and crash-safe file writes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/golden.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace ascend {
namespace {

TEST(Types, BitsOfCoversAllTypes)
{
    EXPECT_EQ(bitsOf(DataType::Int4), 4u);
    EXPECT_EQ(bitsOf(DataType::Int8), 8u);
    EXPECT_EQ(bitsOf(DataType::Fp16), 16u);
    EXPECT_EQ(bitsOf(DataType::Int32), 32u);
    EXPECT_EQ(bitsOf(DataType::Fp32), 32u);
}

TEST(Types, BytesOfRoundsSubByteUp)
{
    EXPECT_EQ(bytesOf(DataType::Int4, 1), 1u);
    EXPECT_EQ(bytesOf(DataType::Int4, 2), 1u);
    EXPECT_EQ(bytesOf(DataType::Int4, 3), 2u);
    EXPECT_EQ(bytesOf(DataType::Fp16, 10), 20u);
    EXPECT_EQ(bytesOf(DataType::Fp32, 4), 16u);
}

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(1ull << 60, 1), 1ull << 60);
}

TEST(Types, RoundUp)
{
    EXPECT_EQ(roundUp(0, 16), 0u);
    EXPECT_EQ(roundUp(1, 16), 16u);
    EXPECT_EQ(roundUp(16, 16), 16u);
    EXPECT_EQ(roundUp(17, 16), 32u);
}

TEST(TypesDeath, CeilDivByZeroPanics)
{
    EXPECT_DEATH(ceilDiv(1, 0), "ceilDiv by zero");
}

TEST(Types, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(1536), "1.50 KiB");
    EXPECT_EQ(formatBytes(kMiB), "1.00 MiB");
    EXPECT_EQ(formatBytes(3 * kGiB), "3.00 GiB");
}

TEST(Types, FormatRate)
{
    EXPECT_EQ(formatRate(500.0), "500.00 B/s");
    EXPECT_EQ(formatRate(4e12), "4.00 TB/s");
    EXPECT_EQ(formatRate(256e9), "256.00 GB/s");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LoggingDeath, FatalExitsWithCode1)
{
    EXPECT_EXIT(fatal("bad config"), testing::ExitedWithCode(1),
                "bad config");
}

TEST(LoggingDeath, SimAssertPanicsOnFalse)
{
    EXPECT_DEATH(simAssert(false, "invariant x"), "invariant x");
}

TEST(Logging, SimAssertPassesOnTrue)
{
    simAssert(true, "fine");
}

TEST(Stats, CounterAccumulates)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    stats::Distribution d;
    d.sample(1.0);
    d.sample(3.0);
    d.sample(2.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.sum(), 6.0);
}

TEST(Stats, EmptyDistributionIsZero)
{
    stats::Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
}

TEST(Stats, GroupLookupAndDump)
{
    stats::StatGroup g("core");
    g.counter("cube.busy").inc(5);
    g.distribution("lat").sample(2.0);
    EXPECT_TRUE(g.hasCounter("cube.busy"));
    EXPECT_FALSE(g.hasCounter("nope"));
    EXPECT_EQ(g.findCounter("cube.busy").value(), 5u);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("core.cube.busy 5"), std::string::npos);
    g.reset();
    EXPECT_EQ(g.findCounter("cube.busy").value(), 0u);
}

TEST(StatsDeath, MissingCounterPanics)
{
    stats::StatGroup g("g");
    EXPECT_DEATH(g.findCounter("missing"), "no counter named");
}

TEST(Table, RendersAlignedRows)
{
    TextTable t("demo");
    t.header({"a", "bbbb"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("| a | bbbb |"), std::string::npos);
    EXPECT_NE(os.str().find("| 1 | 2    |"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    TextTable t;
    t.header({"x", "y"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TableDeath, MismatchedRowWidthPanics)
{
    TextTable t("bad");
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "row width");
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(std::uint64_t(42)), "42");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(4);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        if (r.chance(0.25))
            ++hits;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

/** A fresh directory inside gtest's per-run temp directory. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "ascend_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** True when @p dir holds a leftover "<name>.tmp.<pid>" file. */
bool
hasTempFile(const std::string &dir)
{
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().find(".tmp.") !=
            std::string::npos)
            return true;
    return false;
}

TEST(AtomicFile, CreatesParentsAndReplacesWholeFile)
{
    const std::string dir = freshDir("atomic_ok");
    const std::string path = dir + "/nested/state.bin";
    ASSERT_TRUE(writeFileAtomic(path, "first, longer contents"));
    ASSERT_TRUE(writeFileAtomic(path, std::string("se\0cond", 7)));
    std::string got;
    ASSERT_TRUE(readFileText(path, got));
    EXPECT_EQ(got, std::string("se\0cond", 7));
    EXPECT_FALSE(hasTempFile(dir + "/nested"));
}

TEST(AtomicFile, FailedRenameLeavesTargetAndNoTempFile)
{
    // A non-empty directory at the target path: the temp file writes
    // and syncs, then the rename over it must fail.
    const std::string dir = freshDir("atomic_rename");
    const std::string path = dir + "/state.bin";
    ASSERT_TRUE(writeFileAtomic(path + "/keep.txt", "keep"));
    EXPECT_FALSE(writeFileAtomic(path, "new bytes"));
    std::string got;
    ASSERT_TRUE(readFileText(path + "/keep.txt", got));
    EXPECT_EQ(got, "keep");
    EXPECT_FALSE(hasTempFile(dir));
}

TEST(AtomicFile, UnwritableDirectoryFailsCleanly)
{
    if (::geteuid() == 0)
        GTEST_SKIP() << "root ignores directory permissions";
    namespace fs = std::filesystem;
    const std::string dir = freshDir("atomic_ro");
    const std::string path = dir + "/state.bin";
    ASSERT_TRUE(writeFileAtomic(path, "old"));
    fs::permissions(dir, fs::perms::owner_read | fs::perms::owner_exec);
    EXPECT_FALSE(writeFileAtomic(path, "new"));
    fs::permissions(dir, fs::perms::owner_all);
    std::string got;
    ASSERT_TRUE(readFileText(path, got));
    EXPECT_EQ(got, "old");
    EXPECT_FALSE(hasTempFile(dir));
}

} // anonymous namespace
} // namespace ascend
