/**
 * @file
 * Exact run-length floating-point addition.
 *
 * addRepeated(t, x, n) returns what n sequential `t = t + x` additions
 * return, bit for bit, in O(binades crossed) steps rather than O(n).
 * While t >= x > 0 and t is finite, every add that keeps t inside one
 * binade (one ulp spacing) adds the same whole number r of ulps:
 * x / ulp(t) = q + f with f in [0, 1), and round-to-nearest gives
 * r = q for f < 1/2 and q + 1 for f > 1/2. Adding r to t's bits then
 * adds one ulp step exactly, so k such adds are one integer add of
 * k * r to the bits. An exact tie (f == 1/2) rounds to the even
 * significand, so r depends on the parity of t's last bit; from an
 * even significand the chosen r is even and stays so. What the
 * shortcut does not cover takes one real add: the add that leaves the
 * binade, a tie from an odd significand, and any t < x.
 */

#ifndef ASCEND_COMMON_EXACT_SUM_HH
#define ASCEND_COMMON_EXACT_SUM_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace ascend {

/**
 * @p t plus @p x, added @p n times in sequence, exactly as the plain
 * loop rounds it. Fast for t >= 0 and x >= 0; correct for any inputs
 * (a negative x falls back to the plain loop).
 */
inline double
addRepeated(double t, double x, std::uint64_t n)
{
    if (n == 0)
        return t;
    if (x == 0 || !std::isfinite(t)) // t + x + x == t + x
        return t + x;
    constexpr std::uint64_t kFrac = (1ull << 52) - 1;
    while (n > 0) {
        if (!(x > 0 && t >= x) || !std::isfinite(t)) {
            t = t + x;
            --n;
            continue;
        }
        const auto tb = std::bit_cast<std::uint64_t>(t);
        const auto xb = std::bit_cast<std::uint64_t>(x);
        // Subnormals and the lowest normal binade share ulp 2^-1074.
        const unsigned te = unsigned(tb >> 52), xe = unsigned(xb >> 52);
        const int ulp_exp = int(std::max(te, 1u)) - 1075;
        const int x_exp = int(std::max(xe, 1u)) - 1075;
        const std::uint64_t mx = (xb & kFrac) | (xe ? 1ull << 52 : 0);
        // x / ulp(t) = q + f; x <= t keeps q below 2^53.
        std::uint64_t q = 0;
        int half = -1; ///< sign of f - 1/2
        if (x_exp >= ulp_exp) {
            q = mx << (x_exp - ulp_exp);
        } else if (const int s = ulp_exp - x_exp; s < 64) {
            q = mx >> s;
            const std::uint64_t rem = mx & ((1ull << s) - 1);
            const std::uint64_t mid = 1ull << (s - 1);
            half = rem < mid ? -1 : rem > mid ? 1 : 0;
        }
        std::uint64_t r = q + (half > 0);
        if (half == 0) {
            if (tb & 1) { // a tie from an odd significand
                t = t + x;
                --n;
                continue;
            }
            r = q + (q & 1);
        }
        if (r == 0)
            return t; // each add rounds back to t
        const std::uint64_t end = std::uint64_t(std::max(te + 1, 2u)) << 52;
        const std::uint64_t k = std::min(n, (end - 1 - tb) / r);
        if (k == 0) { // this add leaves the binade
            t = t + x;
            --n;
            continue;
        }
        t = std::bit_cast<double>(tb + k * r);
        n -= k;
    }
    return t;
}

} // namespace ascend

#endif // ASCEND_COMMON_EXACT_SUM_HH
