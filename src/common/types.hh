/**
 * @file
 * Fundamental scalar types and unit helpers shared by all modules.
 */

#ifndef ASCEND_COMMON_TYPES_HH
#define ASCEND_COMMON_TYPES_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "common/logging.hh"

namespace ascend {

/** Simulated clock cycles. */
using Cycles = std::uint64_t;

/** Byte counts (buffer sizes, transfer volumes). */
using Bytes = std::uint64_t;

/** Multiply-accumulate counts / FLOP counts. */
using Flops = std::uint64_t;

/** @p T is record @p R, const or not (a forEachField parameter). */
template <typename T, typename R>
concept RecordOf = std::same_as<std::remove_const_t<T>, R>;

/**
 * The valid range of a numeric field, declared by its forEachField
 * entry (common/field.hh checks it); a bounded double must be finite.
 */
enum class FieldDomain : std::uint8_t {
    Any,
    Positive,    ///< > 0
    NonNegative, ///< >= 0
    Fraction,    ///< in [0, 1]
    AtLeastOne,  ///< >= 1 (a factor over a baseline)
};

/**
 * A list entry's key and its field's domain. It converts to the key,
 * so a walk that takes `const char *` never sees the domain.
 */
struct FieldName
{
    const char *key;
    FieldDomain domain = FieldDomain::Any;

    constexpr FieldName(const char *k, FieldDomain d = FieldDomain::Any)
        : key(k), domain(d)
    {
    }
    constexpr operator const char *() const { return key; }
};

/** Names a bounded list entry: f(positive("key"), c.member...). */
template <FieldDomain D>
struct BoundedKey
{
    constexpr FieldName operator()(const char *key) const { return {key, D}; }
};
inline constexpr BoundedKey<FieldDomain::Positive> positive;
inline constexpr BoundedKey<FieldDomain::NonNegative> nonNegative;
inline constexpr BoundedKey<FieldDomain::Fraction> fraction;
inline constexpr BoundedKey<FieldDomain::AtLeastOne> atLeastOne;

/** Numeric formats supported by the Ascend datapath. */
enum class DataType {
    Int4,
    Int8,
    Fp16,
    Int32,
    Fp32,
};

/** Size of one element of @p dt in *bits* (int4 is sub-byte). */
inline unsigned
bitsOf(DataType dt)
{
    switch (dt) {
      case DataType::Int4:  return 4;
      case DataType::Int8:  return 8;
      case DataType::Fp16:  return 16;
      case DataType::Int32: return 32;
      case DataType::Fp32:  return 32;
    }
    panic("bitsOf: bad DataType %d", static_cast<int>(dt));
}

/** Size of @p count elements of @p dt, rounded up to whole bytes. */
inline Bytes
bytesOf(DataType dt, std::uint64_t count = 1)
{
    return (static_cast<std::uint64_t>(bitsOf(dt)) * count + 7) / 8;
}

/** Human-readable name of a data type. */
inline const char *
toString(DataType dt)
{
    switch (dt) {
      case DataType::Int4:  return "int4";
      case DataType::Int8:  return "int8";
      case DataType::Fp16:  return "fp16";
      case DataType::Int32: return "int32";
      case DataType::Fp32:  return "fp32";
    }
    return "?";
}

/** Integer ceiling division. */
inline std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    simAssert(b != 0, "ceilDiv by zero");
    return (a + b - 1) / b;
}

/** Round @p a up to the next multiple of @p b. */
inline std::uint64_t
roundUp(std::uint64_t a, std::uint64_t b)
{
    return ceilDiv(a, b) * b;
}

constexpr Bytes kKiB = 1024;
constexpr Bytes kMiB = 1024 * kKiB;
constexpr Bytes kGiB = 1024 * kMiB;

/** 1 GB/s expressed in bytes per second (decimal, as vendors quote it). */
constexpr double kGBps = 1e9;
constexpr double kTBps = 1e12;

/** Format a byte count with a binary-unit suffix, e.g. "1.5 MiB". */
std::string formatBytes(Bytes bytes);

/** Format a rate in bytes/second with a decimal-unit suffix. */
std::string formatRate(double bytes_per_second);

} // namespace ascend

#endif // ASCEND_COMMON_TYPES_HH
