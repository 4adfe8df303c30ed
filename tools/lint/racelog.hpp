#ifndef ICHECK_LINT_RACELOG_HPP
#define ICHECK_LINT_RACELOG_HPP

/**
 * @file
 * Parser for the JSONL race logs that `icheck check --race-log` writes
 * (src/race/race_log). The linting driver cross-checks these dynamic
 * racing access pairs against its static lockset findings:
 *
 *  - Promotion: a static L1/L2/L3 finding on a line where the dynamic
 *    detector recorded a racing access is no longer a heuristic guess —
 *    it is promoted to error severity and annotated.
 *  - Contradiction (X1): a dynamic race endpoint on a line the lockset
 *    pass believed guarded means the static model is wrong there (a
 *    lock alias it cannot see, or an unlocked path it missed).
 *
 * Race-log paths come from std::source_location (compiler-invocation
 * relative or absolute); lint paths are whatever the user passed.
 * Matching is by path-suffix at '/' component boundaries.
 */

#include <iosfwd>
#include <string>
#include <vector>

namespace icheck::lint
{

/** One endpoint of a dynamic race. */
struct RaceEndpoint
{
    std::string file;
    int line = 0;
    int tid = 0;
};

/** One line of the race log. */
struct DynamicRace
{
    std::string app;
    std::string kind;   ///< "write-write" / "read-write" / "write-read".
    std::string symbol; ///< "global:kinetic+0x0" etc.
    RaceEndpoint first;
    RaceEndpoint second;
};

/**
 * Parse a JSONL race log. Tolerant: lines that are not parseable race
 * records are skipped, never fatal (the log may be concatenated across
 * apps and tools). A record whose endpoint "line" or "tid" is not a
 * non-negative decimal integer throws std::invalid_argument naming the
 * field and the log line.
 */
std::vector<DynamicRace> readRaceLog(std::istream &in);

/** True when one path is a '/'-boundary suffix of the other. */
bool pathsMatch(const std::string &a, const std::string &b);

} // namespace icheck::lint

#endif // ICHECK_LINT_RACELOG_HPP
