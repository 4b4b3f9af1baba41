/**
 * @file
 * Per-type codecs for the fields of keyed records.
 *
 * A keyed record (model::Layer, arch::CoreConfig) declares its fields
 * once, in a forEachField list next to the struct that calls
 * f(key, member) for each. Every consumer walks that list with these
 * codecs instead of naming the fields again:
 *
 * - fieldBits: the field as one u64 word of a cache key or hash (an
 *   enum or integer as its value, a double as its bit pattern);
 * - fieldText / parseFieldText: the field as text in `.agr` files and
 *   config files (decimal integers, %.17g doubles, true/false, an
 *   enum's toString token);
 * - setFieldText: parse one `key=value` pair into a record, refusing
 *   an unknown key or a value its field's type cannot hold with a
 *   structured ConfigParse error.
 *
 * Enum fields need a toString overload reachable by argument-dependent
 * lookup whose values run from 0 and which returns "?" past the last.
 */

#ifndef ASCEND_COMMON_FIELD_HH
#define ASCEND_COMMON_FIELD_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/codec.hh"
#include "common/error.hh"

namespace ascend {

/** A field as one key or hash word. */
template <typename T>
std::uint64_t
fieldBits(T v)
{
    if constexpr (std::is_floating_point_v<T>)
        return doubleBits(v);
    else
        return std::uint64_t(v);
}

/** A field's text form; parseFieldText restores it exactly. */
template <typename T>
std::string
fieldText(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_enum_v<T>) {
        return toString(v);
    } else if constexpr (std::is_floating_point_v<T>) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    } else {
        return std::to_string(v);
    }
}

/** What parseFieldText expects for a T, for error messages. */
template <typename T>
const char *
fieldTypeName()
{
    if constexpr (std::is_same_v<T, std::string>)
        return "string";
    else if constexpr (std::is_same_v<T, bool>)
        return "bool";
    else if constexpr (std::is_enum_v<T>)
        return "token";
    else if constexpr (std::is_floating_point_v<T>)
        return "number";
    else
        return "integer";
}

/**
 * Parse @p tok as a T into @p out. False, leaving @p out untouched,
 * when @p tok is not one: an integer must be plain decimal digits
 * within T's range, a double must be finite, a bool is
 * true/false/1/0, an enum is one of its toString tokens.
 */
template <typename T>
bool
parseFieldText(const std::string &tok, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = tok;
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (tok != "true" && tok != "false" && tok != "1" && tok != "0")
            return false;
        out = tok == "true" || tok == "1";
        return true;
    } else if constexpr (std::is_enum_v<T>) {
        for (unsigned i = 0; std::strcmp(toString(T(i)), "?") != 0; ++i)
            if (tok == toString(T(i))) {
                out = T(i);
                return true;
            }
        return false;
    } else if constexpr (std::is_floating_point_v<T>) {
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (tok.empty() || *end != '\0' || !std::isfinite(v))
            return false;
        out = v;
        return true;
    } else {
        static_assert(std::is_unsigned_v<T>);
        std::uint64_t v = 0;
        for (const char c : tok) {
            if (c < '0' || c > '9' ||
                v > (std::numeric_limits<T>::max() - (c - '0')) / 10)
                return false;
            v = v * 10 + std::uint64_t(c - '0');
        }
        if (tok.empty())
            return false;
        out = T(v);
        return true;
    }
}

/**
 * Parse @p text into the field keyed @p key of @p rec, found through
 * the record's forEachField list (by argument-dependent lookup).
 * Throws ConfigParse, its message prefixed "<source> line <n>: ", on
 * an unknown key or a value the field's type cannot hold.
 */
template <typename R>
void
setFieldText(R &rec, const std::string &key, const std::string &text,
             const char *source, unsigned line_no)
{
    bool known = false;
    forEachField(
        [&](const char *k, auto &field) {
            if (known || key != k)
                return;
            known = true;
            using T = std::remove_reference_t<decltype(field)>;
            if (!parseFieldText(text, field))
                throwError(ErrorCode::ConfigParse,
                           "%s line %u: bad %s '%s' for key %s", source,
                           line_no, fieldTypeName<T>(), text.c_str(),
                           k);
        },
        rec);
    if (!known)
        throwError(ErrorCode::ConfigParse, "%s line %u: unknown key '%s'",
                   source, line_no, key.c_str());
}

} // namespace ascend

#endif // ASCEND_COMMON_FIELD_HH
