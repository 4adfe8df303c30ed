#include "linter.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lexer.hpp"
#include "runtime/thread_pool.hpp"
#include "symbols.hpp"

namespace icheck::lint
{

namespace
{

/** One parsed, well-formed suppression directive. */
struct Suppression
{
    Rule rule = Rule::D1;
    int firstLine = 0; ///< First line it covers.
    int lastLine = 0;  ///< Last line it covers (comment end + 1).
};

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

/**
 * Parse every allow-directive in a comment carrying the icheck-lint
 * marker. A directive needs a known rule id and a non-empty reason
 * after the closing paren; anything else is an H4.
 */
void
parseSuppressions(const std::string &path, const Comment &comment,
                  std::vector<Suppression> &suppressions,
                  std::vector<Finding> &findings)
{
    const std::string marker = "icheck-lint:";
    std::size_t at = comment.text.find(marker);
    if (at == std::string::npos)
        return;
    int directives = 0;
    std::size_t cursor = at + marker.size();
    while ((at = comment.text.find("allow", cursor)) !=
           std::string::npos) {
        cursor = at + 5;
        std::size_t open = comment.text.find('(', cursor);
        if (open == std::string::npos)
            break;
        std::size_t close = comment.text.find(')', open);
        if (close == std::string::npos)
            break;
        const std::string id =
            trim(comment.text.substr(open + 1, close - open - 1));
        cursor = close + 1;

        // Reason: the text after ')' (and an optional ':' or '--'),
        // up to the next allow() if any.
        std::size_t reason_end = comment.text.find("allow", cursor);
        if (reason_end == std::string::npos)
            reason_end = comment.text.size();
        std::string reason =
            trim(comment.text.substr(cursor, reason_end - cursor));
        while (!reason.empty() &&
               (reason.front() == ':' || reason.front() == '-'))
            reason = trim(reason.substr(1));

        ++directives;
        Rule rule = Rule::D1;
        if (!parseRule(id, rule)) {
            Finding finding;
            finding.rule = Rule::H4;
            finding.file = path;
            finding.line = comment.line;
            finding.message = "suppression names unknown rule '" + id +
                              "'";
            findings.push_back(std::move(finding));
            continue;
        }
        if (reason.empty()) {
            Finding finding;
            finding.rule = Rule::H4;
            finding.file = path;
            finding.line = comment.line;
            finding.message = "suppression of " + id +
                              " is missing its reason";
            findings.push_back(std::move(finding));
            continue;
        }
        Suppression suppression;
        suppression.rule = rule;
        suppression.firstLine = comment.line;
        suppression.lastLine = comment.endLine + 1;
        suppressions.push_back(suppression);
    }
    if (directives == 0) {
        // An icheck-lint marker with no parseable allow-directive.
        Finding finding;
        finding.rule = Rule::H4;
        finding.file = path;
        finding.line = comment.line;
        finding.message = "icheck-lint comment contains no valid "
                          "allow(<rule>) directive";
        findings.push_back(std::move(finding));
    }
}

std::vector<std::string>
splitLines(const std::string &source)
{
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(source);
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

bool
isSourceFile(const std::filesystem::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" ||
           ext == ".cc" || ext == ".hh" || ext == ".cxx" ||
           ext == ".hxx";
}

/** Everything phase 1 extracts from one file. */
struct FileScan
{
    std::vector<Finding> findings; ///< Pattern + comment rules + H4.
    std::vector<Suppression> suppressions;
    std::vector<std::string> lines;
    LocksetFacts facts;
};

FileScan
scanFile(const std::string &path, const std::string &source,
         const LintConfig &config)
{
    FileScan scan;
    const LexResult lexed = lex(source);
    for (const Comment &comment : lexed.comments)
        parseSuppressions(path, comment, scan.suppressions,
                          scan.findings);
    runCodeRules(path, lexed, config, scan.findings);
    runCommentRules(path, lexed, scan.findings);
    const SymbolTable symbols = collectSymbols(path, lexed);
    scan.facts = collectLocksetFacts(path, lexed, symbols, config);
    scan.lines = splitLines(source);
    return scan;
}

bool
isSuppressed(const Finding &finding,
             const std::vector<Suppression> &suppressions)
{
    if (finding.rule == Rule::H4)
        return false;
    for (const Suppression &suppression : suppressions) {
        if (suppression.rule == finding.rule &&
            finding.line >= suppression.firstLine &&
            finding.line <= suppression.lastLine)
            return true;
    }
    return false;
}

KeyedFinding
keyFinding(Finding finding, const std::vector<std::string> &lines)
{
    KeyedFinding entry;
    const std::size_t index = static_cast<std::size_t>(finding.line) - 1;
    entry.lineText = index < lines.size() ? trim(lines[index]) : "";
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(entry.lineText)));
    entry.key = std::string(ruleInfo(finding.rule).id) + "\t" +
                finding.file + "\t" + hash;
    entry.finding = std::move(finding);
    return entry;
}

bool
isLocksetRule(Rule rule)
{
    return rule == Rule::L1 || rule == Rule::L2 || rule == Rule::L3;
}

/** Promote statically-found, dynamically-confirmed findings to error. */
void
promoteConfirmed(std::vector<Finding> &findings,
                 const std::vector<DynamicRace> &races)
{
    for (Finding &finding : findings) {
        if (!isLocksetRule(finding.rule))
            continue;
        for (const DynamicRace &race : races) {
            const RaceEndpoint *hit = nullptr;
            if (race.first.line == finding.line &&
                pathsMatch(race.first.file, finding.file))
                hit = &race.first;
            else if (race.second.line == finding.line &&
                     pathsMatch(race.second.file, finding.file))
                hit = &race.second;
            if (hit == nullptr)
                continue;
            finding.severity = Severity::Error;
            finding.message += " [confirmed by dynamic race: " +
                               race.kind + " on " + race.symbol + "]";
            break;
        }
    }
}

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

LintRun
lintSources(const std::vector<FileInput> &files, const LintConfig &config,
            const std::vector<DynamicRace> &races)
{
    // Phase 1, per file and embarrassingly parallel: pattern rules plus
    // symbol/lockset fact extraction. Results land in input order, so
    // the merge below is identical for every worker count.
    // The calling thread scans too, so --jobs N takes N - 1 workers.
    std::vector<FileScan> scans(files.size());
    const unsigned threads = config.jobs == 0
                                 ? runtime::ThreadPool::hardwareWorkers()
                                 : config.jobs;
    if (threads > 1 && files.size() > 1) {
        runtime::ThreadPool pool(threads - 1);
        pool.parallelFor(files.size(), [&](std::size_t i) {
            scans[i] = scanFile(files[i].path, files[i].source, config);
        });
    } else {
        for (std::size_t i = 0; i < files.size(); ++i)
            scans[i] = scanFile(files[i].path, files[i].source, config);
    }

    // Phase 2, global: guard inference over every TU's facts.
    LintRun run;
    run.filesScanned = static_cast<int>(files.size());
    std::vector<LocksetFacts> facts;
    facts.reserve(scans.size());
    for (FileScan &scan : scans)
        facts.push_back(std::move(scan.facts));
    std::vector<Finding> locksetFindings;
    run.lockset = analyzeLocksets(facts, config, locksetFindings);

    // Route the cross-TU findings back to their files.
    std::map<std::string, std::size_t> fileIndex;
    for (std::size_t i = 0; i < files.size(); ++i)
        fileIndex[files[i].path] = i;
    for (Finding &finding : locksetFindings) {
        const auto at = fileIndex.find(finding.file);
        if (at != fileIndex.end())
            scans[at->second].findings.push_back(std::move(finding));
    }

    // Cross-check against the dynamic race log.
    if (!races.empty()) {
        std::set<std::pair<std::string, int>> contradicted;
        for (const DynamicRace &race : races) {
            for (const RaceEndpoint *endpoint :
                 {&race.first, &race.second}) {
                if (endpoint->line <= 0)
                    continue;
                for (const auto &[file, lines] :
                     run.lockset.guardedLines) {
                    if (lines.count(endpoint->line) == 0 ||
                        !pathsMatch(file, endpoint->file))
                        continue;
                    if (!contradicted.insert({file, endpoint->line})
                             .second)
                        continue;
                    Finding finding;
                    finding.rule = Rule::X1;
                    finding.file = file;
                    finding.line = endpoint->line;
                    finding.severity = Severity::Error;
                    finding.message =
                        "dynamic " + race.kind + " race on " +
                        race.symbol +
                        " at a line the lockset pass believed guarded";
                    const auto at = fileIndex.find(file);
                    if (at != fileIndex.end())
                        scans[at->second].findings.push_back(
                            std::move(finding));
                }
            }
        }
        for (FileScan &scan : scans)
            promoteConfirmed(scan.findings, races);
    }

    // Finalize per file: suppressions, ordering, baseline keys.
    for (FileScan &scan : scans) {
        std::vector<Finding> kept;
        for (Finding &finding : scan.findings) {
            if (!isSuppressed(finding, scan.suppressions))
                kept.push_back(std::move(finding));
        }
        std::stable_sort(kept.begin(), kept.end(),
                         [](const Finding &a, const Finding &b) {
                             if (a.line != b.line)
                                 return a.line < b.line;
                             return static_cast<int>(a.rule) <
                                    static_cast<int>(b.rule);
                         });
        for (Finding &finding : kept)
            run.findings.push_back(
                keyFinding(std::move(finding), scan.lines));
    }
    return run;
}

std::vector<KeyedFinding>
lintSource(const std::string &path, const std::string &source,
           const LintConfig &config)
{
    return lintSources({{path, source}}, config).findings;
}

LintRun
lintPaths(const std::vector<std::string> &paths, const LintConfig &config,
          const std::vector<DynamicRace> &races)
{
    namespace fs = std::filesystem;

    std::vector<std::string> names;
    for (const std::string &path : paths) {
        if (fs::is_directory(path)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(path)) {
                if (entry.is_regular_file() &&
                    isSourceFile(entry.path()))
                    names.push_back(entry.path().generic_string());
            }
        } else if (fs::is_regular_file(path)) {
            names.push_back(fs::path(path).generic_string());
        } else {
            throw std::runtime_error("no such file or directory: " +
                                     path);
        }
    }
    // Directory iteration order is filesystem-dependent; the lint's own
    // output must not be.
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());

    std::vector<FileInput> files;
    files.reserve(names.size());
    for (std::string &name : names) {
        std::ifstream in(name, std::ios::binary);
        if (!in)
            throw std::runtime_error("cannot read " + name);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        files.push_back({std::move(name), buffer.str()});
    }
    return lintSources(files, config, races);
}

Baseline
readBaseline(std::istream &in)
{
    Baseline baseline;
    std::string line;
    while (std::getline(in, line)) {
        const std::string entry = trim(line);
        if (entry.empty() || entry.front() == '#')
            continue;
        ++baseline[entry];
    }
    return baseline;
}

void
writeBaseline(std::ostream &out,
              const std::vector<KeyedFinding> &findings)
{
    out << "# icheck-lint baseline: one tab-separated entry per "
           "accepted finding.\n"
        << "# <rule>\t<file>\t<fnv1a64 of the trimmed source line>\n"
        << "# Regenerate with: icheck-lint --baseline <this file> "
           "--update-baseline <paths>\n";
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const KeyedFinding &finding : findings)
        keys.push_back(finding.key);
    std::sort(keys.begin(), keys.end());
    for (const std::string &key : keys)
        out << key << "\n";
}

std::vector<KeyedFinding>
subtractBaseline(const std::vector<KeyedFinding> &findings,
                 Baseline baseline)
{
    std::vector<KeyedFinding> fresh;
    for (const KeyedFinding &finding : findings) {
        const auto budget = baseline.find(finding.key);
        if (budget != baseline.end() && budget->second > 0) {
            --budget->second;
            continue;
        }
        fresh.push_back(finding);
    }
    return fresh;
}

} // namespace icheck::lint
