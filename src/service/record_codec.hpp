#ifndef ICHECK_SERVICE_RECORD_CODEC_HPP
#define ICHECK_SERVICE_RECORD_CODEC_HPP

/**
 * @file
 * Binary serialization of per-run campaign state for the result store.
 *
 * Two payload kinds live behind store keys: a run's RunRecord (one
 * "work unit" of a sharded campaign) and a campaign's malloc ReplayLog
 * (recorded by run 0, read by every replay run — persisting it is what
 * lets a restarted daemon resume a campaign without re-executing the
 * record run). The encoding is versioned, little-endian, and
 * self-delimiting; decode failures return nullopt rather than trusting
 * on-disk bytes (the store already CRC-frames payloads, so a decode
 * failure means a version skew, and the unit is simply recomputed).
 */

#include <optional>
#include <string>

#include "check/driver.hpp"
#include "mem/alloc.hpp"

namespace icheck::service
{

/** Serialize @p record into a store payload. */
std::string encodeRunRecord(const check::RunRecord &record);

/** Decode a payload produced by encodeRunRecord. */
std::optional<check::RunRecord> decodeRunRecord(const std::string &bytes);

/** Serialize @p log (entries + high-water mark) into a store payload. */
std::string encodeReplayLog(const mem::ReplayLog &log);

/**
 * Decode a payload produced by encodeReplayLog into a fresh @p log. A
 * stored log is a finished record run's, so on success @p log is sealed:
 * complete even when empty, and replays never wait on it.
 */
bool decodeReplayLog(const std::string &bytes, mem::ReplayLog &log);

} // namespace icheck::service

#endif // ICHECK_SERVICE_RECORD_CODEC_HPP
