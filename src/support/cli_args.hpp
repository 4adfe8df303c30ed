#ifndef ICHECK_SUPPORT_CLI_ARGS_HPP
#define ICHECK_SUPPORT_CLI_ARGS_HPP

/**
 * @file
 * The command-line flag parser shared by `icheck` and `loadgen`: flags
 * are `--name value` or bare `--name`, consumed in any order, and every
 * numeric value is range-checked, so a malformed value is a usage error
 * naming the flag (exit 2) rather than a run with a value nobody asked
 * for. `icheck-lint` keeps its own flag loop but parses its numeric
 * flag through the same parseNumber().
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "support/logging.hpp"

namespace icheck
{

/** Upper bound of every --jobs flag: each worker is a host thread. */
inline constexpr int kMaxJobs = 256;

/** Upper bound of serve's --dispatchers (campaigns in flight). */
inline constexpr int kMaxDispatchers = 64;

/**
 * @p text as the value of numeric flag @p name. It must be plain decimal
 * digits within [@p min, @p max]; anything else (empty, signed, trailing
 * garbage, out of range) is a usage error naming the flag and the value.
 */
inline std::uint64_t
parseNumber(const std::string &name, const std::string &text,
            std::uint64_t min, std::uint64_t max)
{
    // from_chars on an unsigned type takes digits only: no sign, no
    // whitespace, and overflow is reported rather than wrapped.
    std::uint64_t n = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc{} || stop != end || n < min || n > max)
        ICHECK_FATAL(name, " expects an integer in [", min, ", ", max,
                     "], got '", text, "'");
    return n;
}

/** Tiny flag parser: --name value / --name. */
class Args
{
  public:
    /** Take argv[first..argc); @p program prefixes leftovers() errors. */
    Args(int argc, char **argv, int first, std::string program)
        : program(std::move(program))
    {
        for (int i = first; i < argc; ++i)
            tokens.emplace_back(argv[i]);
    }

    bool
    flag(const std::string &name)
    {
        for (auto it = tokens.begin(); it != tokens.end(); ++it) {
            if (*it == name) {
                tokens.erase(it);
                return true;
            }
        }
        return false;
    }

    std::optional<std::string>
    value(const std::string &name)
    {
        for (auto it = tokens.begin(); it != tokens.end(); ++it) {
            if (*it == name && std::next(it) != tokens.end()) {
                const std::string v = *std::next(it);
                tokens.erase(it, std::next(it, 2));
                return v;
            }
        }
        return std::nullopt;
    }

    /**
     * Value of numeric flag @p name, or @p fallback when it is absent;
     * a present value is held to parseNumber()'s rule.
     */
    std::uint64_t
    number(const std::string &name, std::uint64_t fallback,
           std::uint64_t min, std::uint64_t max)
    {
        const auto v = value(name);
        return v ? parseNumber(name, *v, min, max) : fallback;
    }

    /** number() for flags stored in an int. */
    int
    count(const std::string &name, int fallback, int min,
          int max = std::numeric_limits<int>::max())
    {
        return static_cast<int>(
            number(name, static_cast<std::uint64_t>(fallback),
                   static_cast<std::uint64_t>(min),
                   static_cast<std::uint64_t>(max)));
    }

    /**
     * Remove and return the first argument that does not start with
     * "--". Call it after every value() a command takes, or it would
     * claim a flag's value.
     */
    std::optional<std::string>
    positional()
    {
        for (auto it = tokens.begin(); it != tokens.end(); ++it) {
            if (it->rfind("--", 0) != 0) {
                std::string v = std::move(*it);
                tokens.erase(it);
                return v;
            }
        }
        return std::nullopt;
    }

    /** True (after naming the first one on stderr) if any argument was
     *  not consumed by the command. */
    bool
    leftovers() const
    {
        if (tokens.empty())
            return false;
        std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                     program.c_str(), tokens.front().c_str());
        return true;
    }

  private:
    std::string program;
    std::vector<std::string> tokens;
};

} // namespace icheck

#endif // ICHECK_SUPPORT_CLI_ARGS_HPP
