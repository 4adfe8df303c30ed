#include "racelog.hpp"

#include <charconv>
#include <istream>
#include <stdexcept>
#include <system_error>

namespace icheck::lint
{

namespace
{

/**
 * Value of `"key":"…"` inside @p text, or "" if absent. The race-log
 * writer escapes only backslash/quote/control characters; unescaping
 * the first two covers every path it can emit.
 */
std::string
stringField(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    std::string value;
    for (std::size_t i = at + needle.size(); i < text.size(); ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) {
            value += text[++i];
            continue;
        }
        if (text[i] == '"')
            return value;
        value += text[i];
    }
    return "";
}

/**
 * Value of `"key":123`, or 0 if absent. A present value must be plain
 * decimal digits that fit an int and end the member; anything else
 * throws std::invalid_argument naming the key.
 */
int
intField(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return 0;
    const char *begin = text.data() + at + needle.size();
    const char *end = text.data() + text.size();
    int value = 0;
    const auto [stop, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || value < 0 ||
        (stop != end && *stop != ',' && *stop != '}')) {
        const std::size_t stop_at =
            text.find_first_of(",}", at + needle.size());
        throw std::invalid_argument(
            "\"" + key + "\" expects a non-negative integer, got '" +
            text.substr(at + needle.size(),
                        stop_at == std::string::npos
                            ? std::string::npos
                            : stop_at - at - needle.size()) +
            "'");
    }
    return value;
}

/** The braced object after `"key":{`, or "" if absent. */
std::string
objectField(const std::string &text, const std::string &key)
{
    const std::string needle = "\"" + key + "\":{";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return "";
    const std::size_t open = at + needle.size() - 1;
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            return text.substr(open, i - open + 1);
    }
    return "";
}

bool
parseEndpoint(const std::string &object, RaceEndpoint &endpoint)
{
    if (object.empty())
        return false;
    endpoint.file = stringField(object, "file");
    endpoint.line = intField(object, "line");
    endpoint.tid = intField(object, "tid");
    return !endpoint.file.empty() && endpoint.line > 0;
}

} // namespace

std::vector<DynamicRace>
readRaceLog(std::istream &in)
{
    std::vector<DynamicRace> races;
    std::string line;
    for (std::size_t number = 1; std::getline(in, line); ++number) {
        DynamicRace race;
        race.app = stringField(line, "app");
        race.kind = stringField(line, "kind");
        race.symbol = stringField(line, "symbol");
        bool first_ok = false;
        bool second_ok = false;
        try {
            first_ok =
                parseEndpoint(objectField(line, "first"), race.first);
            second_ok =
                parseEndpoint(objectField(line, "second"), race.second);
        } catch (const std::invalid_argument &error) {
            throw std::invalid_argument("line " + std::to_string(number) +
                                        ": " + error.what());
        }
        // A record is useful once either endpoint carries attribution;
        // unattributed endpoints keep line 0 and never match anything.
        if (!race.kind.empty() && (first_ok || second_ok))
            races.push_back(std::move(race));
    }
    return races;
}

bool
pathsMatch(const std::string &a, const std::string &b)
{
    if (a.empty() || b.empty())
        return false;
    const std::string &longer = a.size() >= b.size() ? a : b;
    const std::string &shorter = a.size() >= b.size() ? b : a;
    if (longer.size() == shorter.size())
        return longer == shorter;
    if (longer.compare(longer.size() - shorter.size(), shorter.size(),
                       shorter) != 0)
        return false;
    // Component boundary: "apps_fp.cpp" must not match "x_apps_fp.cpp".
    return longer[longer.size() - shorter.size() - 1] == '/';
}

} // namespace icheck::lint
