/**
 * @file
 * icheck-lint command line.
 *
 *   icheck-lint [options] <paths...>
 *     --baseline FILE        subtract FILE's accepted findings
 *     --write-baseline FILE  record current findings as the baseline
 *     --update-baseline      rewrite the --baseline file in place
 *     --race-log FILE        cross-check against a dynamic race log
 *     --sarif FILE           also emit SARIF 2.1.0 to FILE
 *     --jobs N               parallel file scans, 0..256 (0 = hardware)
 *     --list-rules           describe every rule and exit
 *     --jsonl                machine-readable output, one JSON per line
 *     --quiet                suppress per-finding hints
 *
 * Exit status: 0 when no new findings, 1 when new findings remain,
 * 2 on usage or I/O errors.
 */

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "linter.hpp"
#include "sarif.hpp"
#include "support/cli_args.hpp"

namespace
{

using namespace icheck::lint;

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--baseline FILE] [--write-baseline FILE]"
                 " [--update-baseline] [--race-log FILE]"
                 " [--sarif FILE] [--jobs N]"
                 " [--list-rules] [--jsonl] [--quiet] <paths...>\n";
    return 2;
}

void
listRules()
{
    for (const RuleInfo &info : ruleRegistry()) {
        std::cout << info.id << ": " << info.summary << "\n"
                  << "    fix: " << info.hint << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::string baseline_path;
    std::string write_baseline_path;
    std::string race_log_path;
    std::string sarif_path;
    bool update_baseline = false;
    bool jsonl = false;
    bool quiet = false;
    LintConfig config;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            listRules();
            return 0;
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (arg == "--write-baseline" && i + 1 < argc) {
            write_baseline_path = argv[++i];
        } else if (arg == "--update-baseline") {
            update_baseline = true;
        } else if (arg == "--race-log" && i + 1 < argc) {
            race_log_path = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            sarif_path = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            config.jobs = static_cast<unsigned>(icheck::parseNumber(
                "--jobs", argv[++i], 0, icheck::kMaxJobs));
        } else if (arg == "--jsonl") {
            jsonl = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        return usage(argv[0]);
    if (update_baseline) {
        if (baseline_path.empty()) {
            std::cerr << "icheck-lint: --update-baseline needs "
                         "--baseline FILE\n";
            return 2;
        }
        write_baseline_path = baseline_path;
    }

    std::vector<DynamicRace> races;
    if (!race_log_path.empty()) {
        std::ifstream in(race_log_path);
        if (!in) {
            std::cerr << "icheck-lint: cannot read " << race_log_path
                      << "\n";
            return 2;
        }
        try {
            races = readRaceLog(in);
        } catch (const std::invalid_argument &error) {
            std::cerr << "icheck-lint: " << race_log_path << ": "
                      << error.what() << "\n";
            return 2;
        }
    }

    LintRun run;
    try {
        run = lintPaths(paths, config, races);
    } catch (const std::exception &error) {
        std::cerr << "icheck-lint: " << error.what() << "\n";
        return 2;
    }

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path);
        if (!out) {
            std::cerr << "icheck-lint: cannot write "
                      << write_baseline_path << "\n";
            return 2;
        }
        writeBaseline(out, run.findings);
        std::cout << "icheck-lint: wrote " << run.findings.size()
                  << " baseline entries to " << write_baseline_path
                  << "\n";
        return 0;
    }

    std::vector<KeyedFinding> fresh = run.findings;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::cerr << "icheck-lint: cannot read " << baseline_path
                      << "\n";
            return 2;
        }
        fresh = subtractBaseline(run.findings, readBaseline(in));
    }

    if (!sarif_path.empty()) {
        std::ofstream out(sarif_path);
        if (!out) {
            std::cerr << "icheck-lint: cannot write " << sarif_path
                      << "\n";
            return 2;
        }
        out << renderSarif(fresh) << "\n";
    }

    for (const KeyedFinding &entry : fresh) {
        const RuleInfo &info = ruleInfo(entry.finding.rule);
        if (jsonl) {
            std::cout << "{\"file\":\"" << jsonEscape(entry.finding.file)
                      << "\",\"line\":" << entry.finding.line
                      << ",\"rule\":\"" << info.id << "\",\"severity\":\""
                      << severityName(entry.finding.severity)
                      << "\",\"message\":\""
                      << jsonEscape(entry.finding.message) << "\"}\n";
            continue;
        }
        std::cout << entry.finding.file << ":" << entry.finding.line
                  << ": " << severityName(entry.finding.severity)
                  << ": [" << info.id << "] " << entry.finding.message
                  << "\n";
        if (!quiet)
            std::cout << "    fix: " << info.hint << "\n";
    }
    if (!jsonl) {
        std::cout << "icheck-lint: " << run.filesScanned
                  << " files scanned, " << fresh.size()
                  << " new finding(s)";
        if (!baseline_path.empty())
            std::cout << " (" << run.findings.size() - fresh.size()
                      << " baselined)";
        std::cout << "\n";
    }
    return fresh.empty() ? 0 : 1;
}
