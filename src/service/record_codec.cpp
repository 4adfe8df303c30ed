#include "service/record_codec.hpp"

#include <cstring>

namespace icheck::service
{

namespace
{

constexpr std::uint32_t recordVersion = 1;
constexpr std::uint32_t logVersion = 1;

void
putU32(std::string &out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out += static_cast<char>((value >> shift) & 0xff);
}

void
putU64(std::string &out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out += static_cast<char>((value >> shift) & 0xff);
}

void
putString(std::string &out, const std::string &text)
{
    putU32(out, static_cast<std::uint32_t>(text.size()));
    out += text;
}

/** Bounds-checked little-endian reader over one payload. */
class Reader
{
  public:
    explicit Reader(const std::string &bytes) : src(bytes) {}

    bool
    u32(std::uint32_t &out)
    {
        if (src.size() - pos < 4)
            return false;
        out = 0;
        for (int shift = 0; shift < 32; shift += 8)
            out |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(src[pos++]))
                   << shift;
        return true;
    }

    bool
    u64(std::uint64_t &out)
    {
        if (src.size() - pos < 8)
            return false;
        out = 0;
        for (int shift = 0; shift < 64; shift += 8)
            out |= static_cast<std::uint64_t>(
                       static_cast<unsigned char>(src[pos++]))
                   << shift;
        return true;
    }

    bool
    str(std::string &out)
    {
        std::uint32_t len = 0;
        if (!u32(len) || src.size() - pos < len)
            return false;
        out.assign(src, pos, len);
        pos += len;
        return true;
    }

    bool done() const { return pos == src.size(); }

  private:
    const std::string &src;
    std::size_t pos = 0;
};

} // namespace

std::string
encodeRunRecord(const check::RunRecord &record)
{
    std::string out;
    out.reserve(96 + record.checkpointHashes.size() * 8);
    putU32(out, recordVersion);
    putU64(out, record.checkpointHashes.size());
    for (const HashWord hash : record.checkpointHashes)
        putU64(out, hash);
    putU64(out, record.outputHash);
    putU64(out, record.outputBytes);
    putU64(out, record.result.checkpoints);
    putU64(out, record.result.nativeInstrs);
    putU64(out, record.result.overheadInstrs);
    putU64(out, record.result.cacheHits);
    putU64(out, record.result.cacheMisses);
    putU64(out, record.result.storesHashed);
    putU64(out, record.checkerOverheadInstrs);
    return out;
}

std::optional<check::RunRecord>
decodeRunRecord(const std::string &bytes)
{
    Reader reader(bytes);
    std::uint32_t version = 0;
    if (!reader.u32(version) || version != recordVersion)
        return std::nullopt;
    check::RunRecord record;
    std::uint64_t hash_count = 0;
    if (!reader.u64(hash_count) ||
        hash_count > bytes.size() / 8) // cheap sanity bound
        return std::nullopt;
    record.checkpointHashes.reserve(hash_count);
    for (std::uint64_t i = 0; i < hash_count; ++i) {
        std::uint64_t hash = 0;
        if (!reader.u64(hash))
            return std::nullopt;
        record.checkpointHashes.push_back(hash);
    }
    if (!reader.u64(record.outputHash) ||
        !reader.u64(record.outputBytes) ||
        !reader.u64(record.result.checkpoints) ||
        !reader.u64(record.result.nativeInstrs) ||
        !reader.u64(record.result.overheadInstrs) ||
        !reader.u64(record.result.cacheHits) ||
        !reader.u64(record.result.cacheMisses) ||
        !reader.u64(record.result.storesHashed) ||
        !reader.u64(record.checkerOverheadInstrs) || !reader.done())
        return std::nullopt;
    return record;
}

std::string
encodeReplayLog(const mem::ReplayLog &log)
{
    std::string out;
    putU32(out, logVersion);
    putU64(out, log.highWater());
    putU64(out, log.entriesMap().size());
    for (const auto &[key, addr] : log.entriesMap()) {
        putString(out, key.first);
        putU32(out, key.second);
        putU64(out, addr);
    }
    return out;
}

bool
decodeReplayLog(const std::string &bytes, mem::ReplayLog &log)
{
    Reader reader(bytes);
    std::uint32_t version = 0;
    if (!reader.u32(version) || version != logVersion)
        return false;
    std::uint64_t high_water = 0;
    std::uint64_t entry_count = 0;
    if (!reader.u64(high_water) || !reader.u64(entry_count))
        return false;
    for (std::uint64_t i = 0; i < entry_count; ++i) {
        std::string site;
        std::uint32_t seq = 0;
        std::uint64_t addr = 0;
        if (!reader.str(site) || !reader.u32(seq) || !reader.u64(addr))
            return false;
        log.record(site, seq, addr);
    }
    if (!reader.done())
        return false;
    log.raiseHighWater(high_water);
    log.seal();
    return true;
}

} // namespace icheck::service
