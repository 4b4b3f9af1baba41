/**
 * @file
 * Field codec implementation.
 */

#include "common/codec.hh"

#include <cstring>

namespace ascend {

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
writeU64(std::string &buf, std::uint64_t v)
{
    char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    buf.append(raw, sizeof(v));
}

void
writeBytes(std::string &buf, const std::string &bytes)
{
    writeU64(buf, bytes.size());
    buf.append(bytes);
}

bool
ByteReader::readU64(std::uint64_t &v)
{
    if (data.size() - pos < sizeof(v))
        return false;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return true;
}

bool
ByteReader::readBytes(std::string &out, std::size_t max_len)
{
    std::uint64_t len = 0;
    if (!readU64(len) || len > max_len || len > data.size() - pos)
        return false;
    out.assign(data.data() + pos, std::size_t(len));
    pos += std::size_t(len);
    return true;
}

bool
ByteReader::readCount(std::uint64_t &n, std::size_t min_elem_bytes)
{
    return readU64(n) && n <= (data.size() - pos) / min_elem_bytes;
}

} // namespace ascend
