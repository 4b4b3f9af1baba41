/**
 * @file
 * The regenerate-or-compare step of every test that pins one whole
 * generated text (fuzz rows, record keys) to one file under
 * tests/golden.
 */

#ifndef ASCEND_TESTS_GOLDEN_TEST_HH
#define ASCEND_TESTS_GOLDEN_TEST_HH

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/atomic_file.hh"
#include "common/field.hh"
#include "common/golden.hh"

namespace ascend {

/**
 * Expect @p rows to match the golden file @p path. With
 * the switch ASCEND_UPDATE_GOLDEN on, write @p rows there and skip
 * the test instead. Call it last: the skip returns from here only.
 */
inline void
expectGolden(const std::string &path, const std::string &rows)
{
    if (envValue<bool>("ASCEND_UPDATE_GOLDEN").value_or(false)) {
        ASSERT_TRUE(writeFileText(path, rows)) << "cannot write " << path;
        GTEST_SKIP() << "golden regenerated";
    }
    const std::optional<std::string> golden = readFile(path);
    ASSERT_TRUE(golden) << "missing " << path;
    EXPECT_EQ(diffGolden(*golden, rows), "");
}

} // namespace ascend

#endif // ASCEND_TESTS_GOLDEN_TEST_HH
