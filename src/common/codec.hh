/**
 * @file
 * The one field codec behind every durable format and every text key.
 *
 * Binary fields (the frame header in common/atomic_file, and the
 * checkpoint, blob and SimCache bodies common/field.hh's body walk
 * builds): every scalar is a fixed-width u64 in host byte order (the
 * files are machine-local, not an interchange format), a double
 * travels as its bit pattern, and a byte string is length-prefixed.
 * Fields are written one by one, never as a struct memcpy, so padding
 * never reaches the disk. ByteReader is the one bounds-checked
 * reader: a read that would run past the end, or a length or count
 * over its cap, fails instead.
 *
 * Text keys (cache keys, run identities, fingerprints): decimal
 * fields, each terminated by ','. A double is keyed by its bit
 * pattern, because decimal formatting would round and alias distinct
 * sweep points onto one key.
 */

#ifndef ASCEND_COMMON_CODEC_HH
#define ASCEND_COMMON_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace ascend {

/** The standard 64-bit FNV-1a offset basis. */
constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/**
 * 64-bit FNV-1a over @p len bytes at @p data, starting from state
 * @p h (pass a previous result to continue a running hash).
 */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = kFnv1aBasis);

/**
 * Continue FNV-1a state @p h over the 8 bytes of @p v, least
 * significant first. The explicit shifts pin the byte order, so the
 * hash is the same on any host.
 */
inline std::uint64_t
fnv1aU64(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// @{ A double's bit pattern and back (bit-exact, no rounding).
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

inline double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}
/// @}

/// @{ Text-key fields: decimal, comma-terminated. Inline: every cache
/// lookup builds its key from these.
inline void
putU64(std::string &key, std::uint64_t v)
{
    key += std::to_string(v);
    key += ',';
}

inline void
putBits(std::string &key, double v)
{
    putU64(key, doubleBits(v));
}
/// @}

/// @{ Binary fields, appended to @p buf.
void writeU64(std::string &buf, std::uint64_t v);
void writeBytes(std::string &buf, const std::string &bytes);
/// @}

/** Bounds-checked cursor over an encoded buffer. */
struct ByteReader
{
    const std::string &data;
    std::size_t pos = 0;

    bool readU64(std::uint64_t &v);

    /** A length-prefixed string of at most @p max_len bytes. */
    bool readBytes(std::string &out, std::size_t max_len);

    /**
     * A list length @p n whose elements, at least @p min_elem_bytes
     * each, fit in the bytes left: a corrupt count fails here instead
     * of driving a giant allocation.
     */
    bool readCount(std::uint64_t &n, std::size_t min_elem_bytes);

    /** True once every byte has been consumed (no trailing slack). */
    bool atEnd() const { return pos == data.size(); }
};

} // namespace ascend

#endif // ASCEND_COMMON_CODEC_HH
