/**
 * @file
 * Tests for configuration serialization.
 */

#include <vector>

#include <gtest/gtest.h>

#include "arch/config_io.hh"
#include "common/error.hh"
#include "runtime/sim_cache.hh"

namespace ascend {
namespace arch {
namespace {

TEST(ConfigIo, RoundTripsEveryPreset)
{
    // The file is the whole design point: parsed onto a default
    // config (not onto the original, which would hide a field the
    // file drops), it restores the exact SimCache key.
    std::vector<CoreConfig> configs;
    for (auto v : {CoreVersion::Tiny, CoreVersion::Lite,
                   CoreVersion::Mini, CoreVersion::Std,
                   CoreVersion::Max})
        configs.push_back(makeCoreConfig(v));
    CoreConfig odd = makeCoreConfig(CoreVersion::Lite);
    odd.name = "odd";
    odd.dispatchPerCycle = 2;
    odd.clockGhz = 1.0000001;
    configs.push_back(odd);
    for (const CoreConfig &original : configs) {
        const CoreConfig parsed =
            configFromString(configToString(original), CoreConfig{});
        EXPECT_EQ(parsed.name, original.name);
        EXPECT_EQ(runtime::fingerprint(parsed),
                  runtime::fingerprint(original))
            << original.name;
    }
}

TEST(ConfigIo, OverridesApplyOnTopOfBase)
{
    const CoreConfig base = makeCoreConfig(CoreVersion::Max);
    const CoreConfig parsed = configFromString(
        "vector_width_bytes = 512\n"
        "cube_m0 = 32\n",
        base);
    EXPECT_EQ(parsed.vectorWidthBytes, 512u);
    EXPECT_EQ(parsed.cube.m0, 32u);
    EXPECT_EQ(parsed.cube.k0, base.cube.k0); // untouched
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored)
{
    const CoreConfig parsed = configFromString(
        "# a comment\n"
        "\n"
        "l1_bytes = 2097152  # inline comment\n");
    EXPECT_EQ(parsed.l1Bytes, 2 * kMiB);
}

// Helper: run @p fn, expect an ascend::Error with @p code whose
// message contains @p needle.
template <typename Fn>
static void
expectError(Fn &&fn, ErrorCode code, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected ascend::Error [" << toString(code) << "]";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), code) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(ConfigIoErrors, UnknownKeyThrows)
{
    expectError([] { configFromString("no_such_knob = 1\n"); },
                ErrorCode::ConfigParse, "unknown key");
}

TEST(ConfigIoErrors, MalformedLineThrows)
{
    expectError([] { configFromString("just words\n"); },
                ErrorCode::ConfigParse, "expected 'key = value'");
}

TEST(ConfigIoErrors, BadValueThrows)
{
    expectError([] { configFromString("l1_bytes = lots\n"); },
                ErrorCode::ConfigParse, "bad integer");
    expectError([] { configFromString("supports_int8 = maybe\n"); },
                ErrorCode::ConfigParse, "bad bool");
    expectError([] { configFromString("clock_ghz = nan\n"); },
                ErrorCode::ConfigParse, "bad number");
    // A value its field cannot hold is refused, not truncated.
    expectError([] { configFromString("cube_m0 = 4294967312\n"); },
                ErrorCode::ConfigParse, "bad integer");
    expectError([] { configFromString("l1_bytes = -1\n"); },
                ErrorCode::ConfigParse, "bad integer");
    expectError([] { configFromString("version = Ascend-Huge\n"); },
                ErrorCode::ConfigParse, "bad token");
}

TEST(ConfigIoErrors, ParsedConfigIsValidated)
{
    // clock 0 parses but fails validate().
    expectError([] { configFromString("clock_ghz = 0\n"); },
                ErrorCode::ConfigValidation, "clock");
}

TEST(ConfigIoErrors, ParseFailureLeavesNoPartialState)
{
    // A throwing parse must not be observable through later parses:
    // each call starts from its own copy of the base config.
    try {
        configFromString("vector_width_bytes = 9999\nbogus_key = 1\n");
    } catch (const Error &) {
    }
    const CoreConfig clean = configFromString("");
    EXPECT_EQ(clean.vectorWidthBytes,
              arch::makeCoreConfig(arch::CoreVersion::Max)
                  .vectorWidthBytes);
}

TEST(ConfigIo, EditedConfigDrivesTheSimulatorDifferently)
{
    // The point of the file format: widen the vector unit and the
    // parsed config is a genuinely different machine.
    const CoreConfig narrow = configFromString("vector_width_bytes = 64");
    const CoreConfig wide = configFromString("vector_width_bytes = 1024");
    EXPECT_EQ(narrow.vectorLanes(DataType::Fp16), 32u);
    EXPECT_EQ(wide.vectorLanes(DataType::Fp16), 512u);
}

} // anonymous namespace
} // namespace arch
} // namespace ascend
