/**
 * @file
 * Per-type codecs for the fields of keyed records, and the walks over
 * their field lists.
 *
 * A keyed record (model::Layer, arch::CoreConfig and the option
 * records DESIGN.md section 4b lists) and a durable-body record (the
 * checkpoint states and SimResult) declare their fields once, in a
 * forEachField list next to the struct that calls f(key, member) for
 * each. A field may be another record, which the key encoder and the
 * body walk go through by its own list (the text walks take flat
 * records). Every consumer walks the lists with these codecs instead
 * of naming the fields again:
 *
 * - fieldBits: the field as one u64 word of a cache key or hash (an
 *   enum or integer as its value, a double as its bit pattern);
 * - putField / fieldKey: the one key encoder of fingerprints and run
 *   identities;
 * - fieldText / parseFieldText: the field as text in the core config
 *   file and in flag and variable values (decimal integers, %.17g
 *   doubles, true/false, an enum's toString token);
 * - setFieldText: parse one `key=value` pair into a record, refusing
 *   an unknown key or a value its field's type cannot hold with a
 *   structured ConfigParse error;
 * - parseValue / envValue: every command-line flag value and ASCEND_*
 *   variable the tree reads, through the same text codec, failing
 *   closed with a ConfigValidation error that names it;
 * - writeFields / readFields: a record as the `key = value` lines of
 *   the core config file;
 * - encodeBody / decodeBody (encodeField / decodeField for one
 *   value): records and values as the binary body of a durable file
 *   (the elastic and fleet checkpoints). Both walk the same lists,
 *   so a field cannot be written and not read, and the decoder
 *   refuses a value its field cannot hold;
 * - checkFields: a record against the domains its list declares,
 *   `f(positive("key"), ...)` (common/types.hh). The other walks take
 *   the key as `const char *`, so a domain moves no key, text or body
 *   byte; decodeBody refuses a value outside it too. A list's comment
 *   names the entry points that check its record.
 *
 * Enum fields need a toString overload reachable by argument-dependent
 * lookup whose values run from 0 and which returns "?" past the last;
 * decodeBody refuses a value past the last.
 */

#ifndef ASCEND_COMMON_FIELD_HH
#define ASCEND_COMMON_FIELD_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/codec.hh"
#include "common/error.hh"
#include "common/types.hh"

namespace ascend {

/** A record with a forEachField list (by argument-dependent lookup). */
template <typename T>
concept FieldRecord = requires(T &rec) {
    forEachField([](const char *, auto &) {}, rec);
};

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

/**
 * Append @p v to text key @p key: a string length-prefixed, a record
 * as its static keyTag (when it declares one) followed by each listed
 * field, any other field as one fieldBits word.
 */
template <typename T>
void
putField(std::string &key, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        putU64(key, v.size());
        key += v;
    } else if constexpr (FieldRecord<const T>) {
        if constexpr (requires { T::keyTag; })
            key += T::keyTag;
        forEachField(
            [&key](const char *, const auto &field) {
                putField(key, field);
            },
            v);
    } else {
        putU64(key, fieldBits(v));
    }
}

/** A new key of putField of each of @p vs, in order. */
template <typename... T>
std::string
fieldKey(const T &...vs)
{
    std::string key;
    (putField(key, vs), ...);
    return key;
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

/** Write every field of @p rec as a `key = value` line. */
template <typename R>
void
writeFields(std::ostream &os, const R &rec)
{
    forEachField(
        [&os](const char *key, const auto &v) {
            os << key << " = " << fieldText(v) << "\n";
        },
        rec);
}

/**
 * Apply each `key = value` line of @p is (`#` comments, blank lines
 * skipped) to @p rec with setFieldText; a line without '=' throws
 * ConfigParse too. On a throw @p rec holds the lines before the bad one.
 */
template <typename R>
void
readFields(std::istream &is, R &rec, const char *source)
{
    const auto trim = [](const std::string &s) {
        const auto begin = s.find_first_not_of(" \t\r");
        const auto end = s.find_last_not_of(" \t\r");
        return begin == std::string::npos
                   ? std::string()
                   : s.substr(begin, end - begin + 1);
    };
    std::string line;
    unsigned line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string body = trim(line);
        if (body.empty())
            continue;
        const auto eq = body.find('=');
        if (eq == std::string::npos)
            throwError(ErrorCode::ConfigParse,
                       "%s line %u: expected 'key = value', got '%s'",
                       source, line_no, body.c_str());
        setFieldText(rec, trim(body.substr(0, eq)),
                     trim(body.substr(eq + 1)), source, line_no);
    }
}

/**
 * Why @p v lies outside @p domain ("must be positive", ...), or null
 * when it lies inside. A non-numeric field is always inside.
 */
template <typename T>
const char *
outOfDomain(FieldDomain domain, const T &v)
{
    if constexpr (std::is_arithmetic_v<T>) {
        const double x = double(v);
        const bool inside[] = {true, x > 0, x >= 0, x >= 0 && x <= 1,
                               x >= 1};
        const char *const why[] = {nullptr, "must be positive",
                                   "must be non-negative",
                                   "must be in [0, 1]", "must be at least 1"};
        const auto d = std::size_t(domain);
        if (d != 0 && !std::isfinite(x))
            return "must be finite";
        return inside[d] ? nullptr : why[d];
    }
    return nullptr;
}

/**
 * Check each numeric field of @p rec, nested records included,
 * against its list entry's domain. Throws ConfigValidation naming
 * @p record and the key at the first field outside, e.g. `core
 * ascend-max clock_ghz: must be positive, got 0`; a nested record's
 * keys follow its own (`fleet retry timeout_sec: ...`).
 */
template <typename R>
void
checkFields(const R &rec, const std::string &record)
{
    forEachField(
        [&record](FieldName name, const auto &field) {
            using T = std::decay_t<decltype(field)>;
            if constexpr (FieldRecord<const T>) {
                checkFields(field, record + " " + name.key);
            } else if constexpr (std::is_arithmetic_v<T>) {
                if (const char *why = outOfDomain(name.domain, field))
                    throwError(ErrorCode::ConfigValidation,
                               "%s %s: %s, got %s", record.c_str(),
                               name.key, why, fieldText(field).c_str());
            }
        },
        rec);
}

/**
 * @p text, the value of flag or variable @p name, as a T. Throws
 * ConfigValidation when it is not one (`NAME='text' is not a valid
 * integer`) or lies outside @p name's domain (`NAME='-1' must be
 * positive`).
 */
template <typename T>
T
parseValue(FieldName name, const std::string &text)
{
    T v{};
    if (!parseFieldText(text, v))
        throwError(ErrorCode::ConfigValidation, "%s='%s' is not a valid %s",
                   name.key, text.c_str(), fieldTypeName<T>());
    if (const char *why = outOfDomain(name.domain, v))
        throwError(ErrorCode::ConfigValidation, "%s='%s' %s", name.key,
                   text.c_str(), why);
    return v;
}

/** Variable @p name through parseValue; nothing when unset or empty. */
template <typename T>
std::optional<T>
envValue(FieldName name)
{
    const char *text = std::getenv(name.key);
    if (!text || !*text)
        return std::nullopt;
    return parseValue<T>(name, text);
}

/**
 * Narrow fields sharing one body word, the first in the lowest bits:
 * a list names `bitWord<1, 8>(a, b)` where it would name one field,
 * and the word holds a in bit 0 and b in bits 1 to 8.
 */
template <typename T, std::size_t N>
struct BitWord
{
    using Field = T;
    std::array<T *, N> fields;
    std::array<unsigned, N> widths;
};

template <unsigned... Bits, typename T, typename... Rest>
BitWord<T, sizeof...(Bits)>
bitWord(T &first, Rest &...rest)
{
    static_assert((Bits + ...) < 64 &&
                  ((Bits <= std::numeric_limits<
                                std::remove_const_t<T>>::digits) &&
                   ...));
    return {{&first, &rest...}, {Bits...}};
}

/// @{ The body codec's compound cases.
template <typename T>
constexpr bool kVectorField = false;
template <typename T>
constexpr bool kVectorField<std::vector<T>> = true;
template <typename T>
constexpr bool kBitWordField = false;
template <typename T, std::size_t N>
constexpr bool kBitWordField<BitWord<T, N>> = true;
template <typename T>
constexpr bool kBytesField = std::is_same_v<T, std::string> ||
                             std::is_same_v<T, std::vector<std::uint8_t>>;
/// @}

/** Append the body encoding of @p v to @p buf (see encodeBody). */
template <typename T>
void
encodeField(std::string &buf, const T &v)
{
    if constexpr (kBytesField<T>) {
        writeU64(buf, v.size());
        buf.append(v.begin(), v.end());
    } else if constexpr (kVectorField<T>) {
        writeU64(buf, v.size());
        for (const auto &e : v)
            encodeField(buf, e);
    } else if constexpr (kBitWordField<T>) {
        std::uint64_t word = 0;
        for (std::size_t i = 0, at = 0; i < v.fields.size();
             at += v.widths[i++])
            word |= std::uint64_t(*v.fields[i]) << at;
        writeU64(buf, word);
    } else if constexpr (FieldRecord<const T>) {
        forEachField(
            [&buf](const char *, const auto &field) {
                encodeField(buf, field);
            },
            v);
    } else {
        writeU64(buf, fieldBits(v));
    }
}

/**
 * The body codec over @p vs, in order: an integer, enum or bool is one
 * u64 word (common/codec.hh); a double is its bit pattern; a string
 * or byte vector is length-prefixed; any other std::vector is a count
 * and its elements; a bitWord is one word; a record is its list's
 * fields in order. encodeBody returns a new body. decodeBody reads one
 * back, false at the first field that runs past the end, whose count
 * or length cannot fit in the bytes left, or whose value its field
 * cannot hold (a bitWord with a bit set past its fields, an enum past
 * its last value and a value outside its list entry's domain
 * included); @p vs are then partly written.
 */
template <typename... T>
std::string
encodeBody(const T &...vs)
{
    std::string buf;
    (encodeField(buf, vs), ...);
    return buf;
}

/** Decode one encodeField of a T into @p v (see encodeBody). */
template <typename T>
bool
decodeField(ByteReader &rd, T &v)
{
    if constexpr (kBytesField<T>) {
        std::string bytes;
        if (!rd.readBytes(bytes, rd.data.size()))
            return false;
        v.assign(bytes.begin(), bytes.end());
        return true;
    } else if constexpr (kVectorField<T>) {
        // A default element (empty lists) encodes smallest: a count
        // too big for the bytes left fails before resizing.
        static const std::size_t min_bytes =
            encodeBody(typename T::value_type{}).size();
        std::uint64_t n = 0;
        if (!rd.readCount(n, min_bytes))
            return false;
        v.assign(std::size_t(n), {});
        for (auto &e : v)
            if (!decodeField(rd, e))
                return false;
        return true;
    } else if constexpr (FieldRecord<T>) {
        bool ok = true;
        forEachField(
            [&](FieldName name, auto &&field) {
                ok = ok && decodeField(rd, field) &&
                     !outOfDomain(name.domain, field);
            },
            v);
        return ok;
    } else {
        std::uint64_t word = 0;
        if (!rd.readU64(word))
            return false;
        if constexpr (kBitWordField<T>) {
            for (std::size_t i = 0; i < v.fields.size();
                 word >>= v.widths[i++])
                *v.fields[i] = typename T::Field(
                    word & ((std::uint64_t(1) << v.widths[i]) - 1));
            return word == 0; // no bit set past the fields
        } else if constexpr (std::is_floating_point_v<T>) {
            v = bitsDouble(word);
            return true;
        } else {
            using U = typename std::conditional_t<
                std::is_enum_v<T>, std::underlying_type<T>,
                std::type_identity<T>>::type;
            if (word > std::uint64_t(std::numeric_limits<U>::max()))
                return false;
            v = T(word);
            if constexpr (std::is_enum_v<T>)
                return std::strcmp(toString(v), "?") != 0;
            return true;
        }
    }
}

template <typename... T>
bool
decodeBody(ByteReader &rd, T &...vs)
{
    return (decodeField(rd, vs) && ...);
}

} // namespace ascend

#endif // ASCEND_COMMON_FIELD_HH
