/**
 * @file
 * Unit tests for the common substrate: types, logging, table
 * rendering, the deterministic RNG, the field codec, crash-safe file
 * writes, the shared durable-file frame and exact run-length addition.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hh"
#include "common/codec.hh"
#include "common/exact_sum.hh"
#include "common/field.hh"
#include "common/golden.hh"
#include "common/logging.hh"
#include "common/rng.hh"
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
    EXPECT_EQ(readFile(path), std::string("se\0cond", 7));
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
    EXPECT_EQ(readFile(path + "/keep.txt"), "keep");
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
    EXPECT_EQ(readFile(path), "old");
    EXPECT_FALSE(hasTempFile(dir));
}

TEST(Codec, FieldsRoundTripAndTheReaderStaysInBounds)
{
    std::string buf;
    writeU64(buf, 0x0123456789abcdefULL);
    encodeField(buf, -0.0);
    writeBytes(buf, std::string("a\0b", 3));
    ASSERT_EQ(buf.size(), 8u + 8u + 8u + 3u);

    ByteReader r{buf};
    std::uint64_t u = 0;
    double d = 1.0;
    std::string bytes;
    ASSERT_TRUE(r.readU64(u));
    ASSERT_TRUE(decodeField(r, d));
    EXPECT_EQ(u, 0x0123456789abcdefULL);
    EXPECT_EQ(doubleBits(d), doubleBits(-0.0)); // bit-exact, sign kept
    EXPECT_FALSE(r.readBytes(bytes, 2)) << "over the caller's maximum";

    ByteReader again{buf, 16};
    ASSERT_TRUE(again.readBytes(bytes, 3));
    EXPECT_EQ(bytes, std::string("a\0b", 3));
    EXPECT_TRUE(again.atEnd());
    EXPECT_FALSE(again.readU64(u)) << "nothing left";
    EXPECT_EQ(again.pos, buf.size());

    // A count must fit in the bytes left at its element size.
    std::string list;
    writeU64(list, 2);
    writeU64(list, 7);
    writeU64(list, 9);
    std::uint64_t n = 0;
    EXPECT_TRUE((ByteReader{list}.readCount(n, 8)));
    EXPECT_EQ(n, 2u);
    EXPECT_FALSE((ByteReader{list}.readCount(n, 9)));
    std::string huge;
    writeU64(huge, ~std::uint64_t(0));
    EXPECT_FALSE((ByteReader{huge}.readCount(n, 1)));
    EXPECT_FALSE((ByteReader{huge}.readBytes(bytes, ~std::size_t(0))));
}

/** A body record with every kind of field the body walk codes. */
struct BodyProbe
{
    std::uint32_t narrow = 0;
    double real = 0;
    std::string text;
    std::vector<std::uint8_t> bytes;
    std::array<std::uint16_t, 2> pair{};
    std::uint8_t lo = 0;
    std::uint8_t hi = 0;
    std::vector<BodyProbe> children;
};

template <typename F, RecordOf<BodyProbe>... P>
void
forEachField(F &&f, P &...p)
{
    f("narrow", p.narrow...);
    f("real", p.real...);
    f("text", p.text...);
    f("bytes", p.bytes...);
    f("pair", p.pair...);
    f("flags", bitWord<1, 7>(p.lo, p.hi)...);
    f("children", p.children...);
}

TEST(Codec, BodyWalkRoundTripsAndRefusesWhatAFieldCannotHold)
{
    BodyProbe p;
    p.narrow = 0xffffffffu;
    p.real = -0.0;
    p.text = std::string("a\0b", 3);
    p.bytes = {0, 255};
    p.pair = {1, 65535};
    p.lo = 1;
    p.hi = 127;
    p.children.resize(2);
    p.children[1].text = "child";
    const std::string body = encodeBody(p, std::uint64_t(7));
    // narrow, real, text, bytes, pair, flags, then the two children
    // (8 words each, plus 5 text bytes) and the trailing word.
    ASSERT_EQ(body.size(), 8u * 2 + (8 + 3) + (8 + 2) + 8 * 2 + 8 +
                               (8 + 2 * 8 * 8 + 5) + 8);

    BodyProbe back;
    std::uint64_t tail = 0;
    ByteReader r{body};
    ASSERT_TRUE(decodeBody(r, back, tail));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(encodeBody(back, tail), body);
    EXPECT_EQ(doubleBits(back.real), doubleBits(-0.0));
    EXPECT_EQ(back.text, p.text);
    EXPECT_EQ(back.bytes, p.bytes);
    EXPECT_EQ(back.pair, p.pair);
    EXPECT_EQ(back.lo, 1u);
    EXPECT_EQ(back.hi, 127u);
    ASSERT_EQ(back.children.size(), 2u);
    EXPECT_EQ(back.children[1].text, "child");

    // The flags word holds lo in bit 0 and hi in bits 1 to 7.
    const std::size_t pair_at = 16 + 11 + 10;
    const std::size_t flags_at = pair_at + 16;
    std::uint64_t flags = 0;
    ByteReader at_flags{body, flags_at};
    ASSERT_TRUE(at_flags.readU64(flags));
    EXPECT_EQ(flags, 1u | (127u << 1));

    // A word its field cannot hold is refused, never truncated.
    const auto refused = [&](std::size_t at, std::uint64_t word) {
        std::string bad = body;
        std::string w;
        writeU64(w, word);
        bad.replace(at, w.size(), w);
        BodyProbe out;
        ByteReader rd{bad};
        return !decodeBody(rd, out);
    };
    EXPECT_TRUE(refused(0, std::uint64_t(1) << 32)) << "u32";
    EXPECT_TRUE(refused(pair_at + 8, 65536)) << "u16 in an array";
    EXPECT_TRUE(refused(flags_at, 1u << 8)) << "past the bitWord";
    EXPECT_FALSE(refused(flags_at, 0xff)) << "every bitWord bit";
    // A child takes at least 8 words: a count the bytes left cannot
    // hold fails before any element is read.
    EXPECT_TRUE(refused(flags_at + 8, 3)) << "count";
    EXPECT_FALSE(refused(flags_at + 8, 2));
    // Every cut of the body is refused.
    for (std::size_t cut = 0; cut < body.size() - 8; ++cut) {
        const std::string part = body.substr(0, cut);
        BodyProbe out;
        ByteReader rd{part};
        EXPECT_FALSE(decodeBody(rd, out)) << "cut at " << cut;
    }
}

TEST(Codec, TextKeysAndFnv1a)
{
    std::string key;
    putU64(key, 42);
    putBits(key, 1.0);
    EXPECT_EQ(key, "42,4607182418800017408,");
    EXPECT_EQ(bitsDouble(doubleBits(0.1)), 0.1);

    // Published FNV-1a 64 vectors; a hash continues across calls.
    EXPECT_EQ(fnv1a("", 0), kFnv1aBasis);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);
    EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), fnv1a("foobar", 6));

    // fnv1aU64 hashes a u64's bytes least significant first, on any
    // host, from any starting state.
    const unsigned char le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
    EXPECT_EQ(fnv1aU64(kFnv1aBasis, 0x0102030405060708ULL),
              fnv1a(le, sizeof(le)));
    EXPECT_EQ(fnv1aU64(12345, 0x0102030405060708ULL),
              fnv1a(le, sizeof(le), 12345));
}

constexpr char kTestMagic[8] = {'T', 'E', 'S', 'T', 'F', 'R', 'M', '\n'};

TEST(Frame, LayoutIsMagicVersionIdentityBodyChecksum)
{
    const std::string path = freshDir("frame_layout") + "/f.bin";
    ASSERT_TRUE(writeFramed(path, kTestMagic, 3, "id", "body"));
    std::string want(kTestMagic, sizeof(kTestMagic));
    writeU64(want, 3);
    writeBytes(want, "id");
    writeBytes(want, "body");
    writeU64(want, fnv1a(want.data(), want.size()));
    EXPECT_EQ(readFile(path), want);

    std::string body;
    EXPECT_EQ(readFramed(path, kTestMagic, 3, "id", body), FrameStatus::Ok);
    EXPECT_EQ(body, "body");
}

TEST(Frame, EveryRefusalHasItsOwnReasonAndLeavesTheBodyAlone)
{
    const std::string dir = freshDir("frame_refusals");
    const std::string path = dir + "/f.bin";
    const auto status = [&](const std::string &bytes) {
        EXPECT_TRUE(writeFileAtomic(path, bytes));
        std::string body = "untouched";
        const FrameStatus st = readFramed(path, kTestMagic, 3, "id", body);
        if (st != FrameStatus::Ok) {
            EXPECT_EQ(body, "untouched") << toString(st);
        }
        return st;
    };
    // A well-sealed frame, with @p slack between body and checksum.
    const auto sealed = [](std::uint64_t version, const std::string &id,
                           const std::string &slack) {
        std::string f(kTestMagic, sizeof(kTestMagic));
        writeU64(f, version);
        writeBytes(f, id);
        writeBytes(f, "body");
        f += slack;
        writeU64(f, fnv1a(f.data(), f.size()));
        return f;
    };
    const std::string good = sealed(3, "id", "");

    std::string body;
    EXPECT_EQ(readFramed(dir + "/none", kTestMagic, 3, "id", body),
              FrameStatus::Missing);
    EXPECT_EQ(status(good.substr(0, 20)), FrameStatus::Short);
    EXPECT_EQ(status("NOTFRAME" + good.substr(8)), FrameStatus::BadMagic);
    std::string flipped = good;
    flipped[20] = char(flipped[20] ^ 0x10);
    EXPECT_EQ(status(flipped), FrameStatus::ChecksumMismatch);
    EXPECT_EQ(status(sealed(4, "id", "")), FrameStatus::UnknownVersion);
    EXPECT_EQ(status(sealed(3, "other", "")),
              FrameStatus::ForeignIdentity);
    EXPECT_EQ(status(sealed(3, "id", "xx")), FrameStatus::TrailingBytes);
    // A length that overruns the frame, under a valid checksum.
    std::string overrun(kTestMagic, sizeof(kTestMagic));
    writeU64(overrun, 3);
    writeU64(overrun, 1000);
    writeU64(overrun, 0);
    writeU64(overrun, fnv1a(overrun.data(), overrun.size()));
    EXPECT_EQ(status(overrun), FrameStatus::Short);
    EXPECT_EQ(status(good), FrameStatus::Ok);
}

// ------------------------------------------------ exact run-length add

/** What addRepeated must reproduce: n plain adds in sequence. */
double
addLoop(double t, double x, std::uint64_t n)
{
    for (; n > 0; --n)
        t = t + x;
    return t;
}

/** Expect addRepeated(t, x, n) to equal the plain loop bit for bit. */
void
expectSameAsLoop(double t, double x, std::uint64_t n)
{
    const double want = addLoop(t, x, n);
    const double got = addRepeated(t, x, n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "t=" << std::hexfloat << t << " x=" << x << " n="
        << std::dec << n << ": got " << std::hexfloat << got
        << ", loop " << want;
}

/** The spacing of doubles at positive normal @p t. */
double
ulpOf(double t)
{
    return std::nextafter(t, HUGE_VAL) - t;
}

TEST(AddRepeated, MatchesThePlainLoopOnRandomRuns)
{
    Rng rng(0xadd);
    for (int trial = 0; trial < 400; ++trial) {
        // t spans 60 binades; x is t scaled by 2^-40 .. 2^4, so runs
        // start below, at and above t and cross up to ~17 binades.
        const double t = trial % 10 == 0
                             ? 0.0
                             : std::ldexp(1.0 + rng.uniformReal(),
                                          int(rng.uniform(60)) - 30);
        const double x = std::ldexp(1.0 + rng.uniformReal(),
                                    int(rng.uniform(60)) - 30 -
                                        int(rng.uniform(45)) + 4);
        expectSameAsLoop(t, x, 1 + rng.uniform(100000));
    }
}

TEST(AddRepeated, ExactTiesRoundToEven)
{
    Rng rng(0x7e);
    for (int trial = 0; trial < 200; ++trial) {
        double t = std::ldexp(1.0 + rng.uniformReal(),
                              int(rng.uniform(40)) - 20);
        if (trial % 2) // both parities of the last significand bit
            t = std::nextafter(t, HUGE_VAL);
        const double k = double(rng.uniform(trial % 4 ? 8 : 2));
        expectSameAsLoop(t, (k + 0.5) * ulpOf(t), 1 + rng.uniform(100000));
    }
}

TEST(AddRepeated, RunsCrossSeveralBinades)
{
    expectSameAsLoop(1.0, 1.0, 100000);  // exact, 17 binades
    expectSameAsLoop(0.3, 0.1, 100000);  // inexact x
    expectSameAsLoop(1e6, 3.7e5, 99999); // x just under t
    expectSameAsLoop(0x1.fffffffffffffp-1, 0x1p-53, 5); // tie at the edge
    expectSameAsLoop(DBL_MAX / 4, DBL_MAX / 8, 100);    // overflows
}

TEST(AddRepeated, EdgeCases)
{
    EXPECT_EQ(addRepeated(2.5, 1.0, 0), 2.5);
    expectSameAsLoop(0.0, 0.75, 1000);     // t = 0
    expectSameAsLoop(-0.0, 0.0, 3);        // -0 + +0 is +0
    expectSameAsLoop(1.0, 0.0, 1000);      // x = 0
    expectSameAsLoop(1e-3, 5.0, 1000);     // x > t
    expectSameAsLoop(0.0, 4.9e-324, 1000); // subnormal x from t = 0
    expectSameAsLoop(DBL_MIN * 0.75, 3e-310, 1000); // into the normals
    expectSameAsLoop(1.0, 4.9e-324, 1000); // subnormal x on a normal t
    expectSameAsLoop(1.0, -0.25, 1000);    // negative x
    expectSameAsLoop(HUGE_VAL, 1.0, 1000);
    // x below half an ulp never moves t; exactly half moves only an
    // odd significand, once.
    const double t = 1.0 + 0x1p-50;
    EXPECT_EQ(addRepeated(t, 0.49 * ulpOf(t), 100000), t);
    expectSameAsLoop(t, 0.5 * ulpOf(t), 100000);
    expectSameAsLoop(std::nextafter(t, 2.0), 0.5 * ulpOf(t), 100000);
}

} // anonymous namespace
} // namespace ascend
