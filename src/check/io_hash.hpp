#ifndef ICHECK_CHECK_IO_HASH_HPP
#define ICHECK_CHECK_IO_HASH_HPP

/**
 * @file
 * Output-stream determinism hashing (Section 4.3).
 *
 * InstantCheck hashes the bytes passed to write() before the call returns,
 * which fully captures the behaviour of properly-synchronized outputs. The
 * simulated machine keeps the whole stream in write order
 * (Machine::output()), so the driver hashes it once after the run: a CRC
 * chained across writes equals the CRC of their concatenation, so the
 * result is the same as hashing each write() as it returns.
 */

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace icheck::check
{

/** CRC64 of @p stream, chained from 0. Order-sensitive; blind to how the
 *  bytes were split across write() calls. */
HashWord hashOutputStream(const std::vector<std::uint8_t> &stream);

} // namespace icheck::check

#endif // ICHECK_CHECK_IO_HASH_HPP
