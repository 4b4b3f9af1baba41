/**
 * @file
 * Field-by-field comparison of two SimResults for tests, walking the
 * SimResult and PipeStats field lists (core::forEachField), so a
 * field added to either list is compared without touching this file.
 */

#ifndef ASCEND_TESTS_RESULT_DIFF_HH
#define ASCEND_TESTS_RESULT_DIFF_HH

#include <cstdint>
#include <string>
#include <type_traits>

#include "core/core_sim.hh"

namespace ascend {

/**
 * The first SimResult field where @p a and @p b differ, as
 * "pipes[cube].wait_cycles 4 vs 0", or "" when every field is equal.
 */
inline std::string
resultDiff(const core::SimResult &a, const core::SimResult &b)
{
    std::string diff;
    auto differ = [&diff](const std::string &name, std::uint64_t x,
                          std::uint64_t y) {
        if (diff.empty() && x != y)
            diff = name + " " + std::to_string(x) + " vs " +
                   std::to_string(y);
    };
    core::forEachField(
        [&](const char *name, const auto &x, const auto &y) {
            using T = std::decay_t<decltype(x)>;
            if constexpr (std::is_same_v<T, decltype(a.pipes)>) {
                for (std::size_t p = 0; p < x.size(); ++p) {
                    const std::string pipe = std::string(name) + "[" +
                                             isa::toString(isa::Pipe(p)) +
                                             "].";
                    core::forEachField(
                        [&](const char *field, auto u, auto v) {
                            differ(pipe + field, u, v);
                        },
                        x[p], y[p]);
                }
            } else if constexpr (std::is_same_v<T, decltype(a.busBytes)>) {
                for (std::size_t i = 0; i < x.size(); ++i)
                    differ(std::string(name) + "[" +
                               isa::toString(isa::Bus(i)) + "]",
                           x[i], y[i]);
            } else {
                differ(name, x, y);
            }
        },
        a, b);
    return diff;
}

} // namespace ascend

#endif // ASCEND_TESTS_RESULT_DIFF_HH
