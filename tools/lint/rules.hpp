#ifndef ICHECK_LINT_RULES_HPP
#define ICHECK_LINT_RULES_HPP

/**
 * @file
 * The D/C/H rule implementations.
 *
 * Rules run over the token stream of one file plus a small amount of
 * path context (is this file in the timing whitelist? in arena code? in
 * src/runtime?). They are heuristic by design — no template
 * instantiation, no cross-TU analysis — and err on the side of
 * flagging: a human answers every finding either with a fix or with a
 * reasoned suppression comment (`icheck-lint: allow(D1): why`).
 */

#include <string>
#include <vector>

#include "finding.hpp"
#include "token.hpp"

namespace icheck::lint
{

/** Per-run knobs; the defaults encode this repository's layout. */
struct LintConfig
{
    /**
     * Path substrings where steady_clock::now() is legitimate (timing
     * measurement that never feeds a hash or report payload).
     */
    std::vector<std::string> timingWhitelist = {
        "bench/", "src/runtime/", "src/service/", "tests/"};

    /** Path substrings where raw new/delete is arena business. */
    std::vector<std::string> arenaWhitelist = {"src/mem/"};

    /**
     * Path substrings where C2 (unlocked counter updates) applies. The
     * service's codecs (json, record_codec) are single-threaded parsers
     * whose cursors are not shared counters, so only the concurrent
     * pieces of src/service/ are in scope.
     */
    std::vector<std::string> lockedCounterScope = {
        "src/runtime/", "src/explore/explorer", "src/service/daemon",
        "src/service/executor", "src/service/line_socket",
        "src/service/serve_loop"};

    /**
     * An object is considered guarded when at least this fraction of
     * its writes hold the reference lock (and minGuardWrites is met).
     * The guarded-by relation gates L3, read-flagging, and the X1
     * cross-check; L1 flags non-conforming writes at a lower bar (any
     * locked write plus minGuardWrites total).
     */
    double guardRatio = 0.8;

    /** Minimum writes before guard inference says anything at all. */
    int minGuardWrites = 2;

    /**
     * Threads for the per-file phase (lex + pattern rules +
     * symbol/lockset fact extraction), the calling thread included.
     * 1 = serial; 0 = one per core. Output is byte-identical for every
     * value.
     */
    unsigned jobs = 1;
};

/** Run every code rule over @p lexed (from @p path) into @p findings. */
void runCodeRules(const std::string &path, const LexResult &lexed,
                  const LintConfig &config,
                  std::vector<Finding> &findings);

/** Run the comment rules (H3) over @p lexed into @p findings. */
void runCommentRules(const std::string &path, const LexResult &lexed,
                     std::vector<Finding> &findings);

/** True if @p path contains any of @p needles. */
bool pathMatchesAny(const std::string &path,
                    const std::vector<std::string> &needles);

} // namespace icheck::lint

#endif // ICHECK_LINT_RULES_HPP
