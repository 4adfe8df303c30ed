#!/usr/bin/env bash
# Every numeric flag of every icheck subcommand, and of loadgen and
# icheck-lint when they are given, must reject a malformed or out-of-range
# value with exit 2 (usage error) and an error on stderr that names the
# flag; so must the removed icheck event-transport flag and loadgen's
# removed --baseline, an app name icheck does not know, and a race log
# whose "line" field is not a line number. No value here is valid, so no
# command gets as far as running a campaign, a daemon or a lint pass.
#
#   numeric_flags.sh path/to/icheck [path/to/loadgen [path/to/icheck-lint]]
set -u

icheck="$1"
loadgen="${2:-}"
lint="${3:-}"
tool="${icheck}"
failures=0
cases=0

# expect_usage_error FLAG ARGS... : run `$tool ARGS...`, require exit 2
# and FLAG somewhere on stderr. The timeout turns a value that is wrongly
# accepted by serve or route (which would start a daemon) into a failure.
expect_usage_error() {
    local flag="$1"
    shift
    local err rc
    err="$(timeout -s KILL 20 "${tool}" "$@" 2>&1 >/dev/null </dev/null)"
    rc=$?
    cases=$((cases + 1))
    if [ "${rc}" -ne 2 ] || ! grep -qF -- "${flag}" <<<"${err}"; then
        echo "FAIL: ${tool##*/} $* -> exit ${rc}; stderr: ${err}" >&2
        failures=$((failures + 1))
    fi
}

# Subcommand prefix (what precedes the flag) | its numeric flags.
matrix=(
    "check radix|--runs --seed --jobs"
    "characterize radix|--runs --jobs"
    "explore radix|--runs --quantum --depth --preemptions --jobs"
    "localize radix|--checkpoint --seed-a --seed-b"
    "stats radix|--seed"
    "infer radix|--runs"
    "verify|--runs --jobs"
    "serve|--jobs --dispatchers --queue-depth --max-line-bytes"
    "route --socket unused.sock --backend b0=unused0.sock|--vnodes --pull-interval-ms"
)
bad_values=(abc 4x -3 99999999999999999999999)

for row in "${matrix[@]}"; do
    read -r -a prefix <<<"${row%%|*}"
    read -r -a flags <<<"${row#*|}"
    for flag in "${flags[@]}"; do
        for value in "${bad_values[@]}"; do
            expect_usage_error "${flag}" "${prefix[@]}" "${flag}" "${value}"
        done
    done
done

# Range limits: a campaign compares at least two runs, a search runs at
# least one schedule.
expect_usage_error --runs check radix --runs 1
expect_usage_error --runs characterize radix --runs 1
expect_usage_error --runs verify --runs 0
expect_usage_error --runs explore radix --runs 0

# Every --jobs is a host thread count, capped at 256.
expect_usage_error --jobs check radix --jobs 257
expect_usage_error --jobs characterize radix --jobs 257
expect_usage_error --jobs explore radix --jobs 257
expect_usage_error --jobs verify --jobs 257
expect_usage_error --jobs serve --jobs 257

# The removed event-transport flag is an unknown argument now.
expect_usage_error --transport check radix --transport off
expect_usage_error --transport explore radix --transport

# An app name the registry does not know is a usage error, named on
# stderr; so is a flag where the app name belongs.
for command in check characterize explore localize stats infer; do
    expect_usage_error "unknown app 'nosuchapp'" "${command}" nosuchapp
done
expect_usage_error "unknown app '--help'" explore --help

# loadgen forwards --jobs and --dispatchers to `icheck serve`, so they
# take serve's bounds; --runs is at least 2 as for check, and --clients
# (one thread each) is at most 256. A summary written to /dev/null keeps
# a wrongly accepted value from leaving a file behind.
if [ -n "${loadgen}" ]; then
    tool="${loadgen}"
    for flag in --requests --clients --runs --seeds --jobs --dispatchers \
        --fleet; do
        for value in "${bad_values[@]}"; do
            expect_usage_error "${flag}" /dev/null --quick "${flag}" "${value}"
        done
    done
    expect_usage_error --runs /dev/null --quick --runs 1
    expect_usage_error --jobs /dev/null --quick --jobs 257
    expect_usage_error --dispatchers /dev/null --quick --dispatchers 0
    expect_usage_error --clients /dev/null --quick --clients 257
    expect_usage_error --baseline /dev/null --quick --baseline old.json
fi

# icheck-lint parses --jobs by the same rule (0..256) and the race log's
# line numbers strictly. It is always given one file, never a directory:
# one file is scanned without a pool, so a build that took an unchecked
# --jobs value would still start no worker threads.
if [ -n "${lint}" ]; then
    tool="${lint}"
    scratch="$(mktemp -d)"
    trap 'rm -rf "${scratch}"' EXIT
    source_file="${scratch}/one.cpp"
    echo "int one() { return 1; }" >"${source_file}"
    for value in "${bad_values[@]}" 257; do
        expect_usage_error --jobs --jobs "${value}" "${source_file}"
    done
    for value in abc 4x -3 99999999999999999999999 '"7"'; do
        log="${scratch}/race.jsonl"
        printf '{"app":"a","kind":"write-write","symbol":"s",%s%s}\n' \
            "\"first\":{\"tid\":0,\"file\":\"one.cpp\",\"line\":${value}}," \
            '"second":{"tid":1,"file":"one.cpp","line":1}' >"${log}"
        expect_usage_error '"line"' --race-log "${log}" "${source_file}"
    done
fi

echo "${cases} cases, ${failures} failures"
[ "${failures}" -eq 0 ]
