/**
 * @file
 * The daemon under router-shaped traffic: pull/install protocol
 * parsing, interleaved pipelined lines on one logical connection,
 * error frames a router must be able to route by id, and the
 * install/pull replication round trip — the backend half of the fleet
 * contract.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/daemon.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace icheck::service
{
namespace
{

ParsedLine
parse(const std::string &line)
{
    return parseRequestLine(line, 64 * 1024);
}

ServiceConfig
quietConfig()
{
    ServiceConfig cfg;
    cfg.jobs = 1;
    return cfg;
}

} // namespace

TEST(RouterInputs, PullRequestParses)
{
    const ParsedLine parsed =
        parse("{\"id\":\"l1\",\"op\":\"pull\",\"from\":128,\"max\":4096}");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.request->op, RequestOp::Pull);
    EXPECT_EQ(parsed.request->pull.from, 128u);
    EXPECT_EQ(parsed.request->pull.maxBytes, 4096u);
}

TEST(RouterInputs, PullDefaultsAndBounds)
{
    const ParsedLine defaults =
        parse("{\"id\":\"l1\",\"op\":\"pull\"}");
    ASSERT_TRUE(defaults.ok());
    EXPECT_EQ(defaults.request->pull.from, 0u);
    EXPECT_EQ(defaults.request->pull.maxBytes, 24576u);
    EXPECT_FALSE(
        parse("{\"id\":\"l1\",\"op\":\"pull\",\"max\":63}").ok());
    EXPECT_FALSE(
        parse("{\"id\":\"l1\",\"op\":\"pull\",\"max\":1048577}").ok());
    EXPECT_FALSE(
        parse("{\"id\":\"l1\",\"op\":\"pull\",\"from\":-1}").ok());
    // Fields of other ops stay unknown to pull.
    EXPECT_FALSE(
        parse("{\"id\":\"l1\",\"op\":\"pull\",\"app\":\"radix\"}").ok());
}

TEST(RouterInputs, InstallRequestParsesAndDecodesHexAtParseTime)
{
    const std::string frames = encodeFrame("k", "v");
    const ParsedLine parsed =
        parse("{\"id\":\"f1\",\"op\":\"install\",\"frames\":\"" +
              hexEncode(frames) + "\"}");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.request->op, RequestOp::Install);
    EXPECT_EQ(parsed.request->install.frames, frames);
}

TEST(RouterInputs, InstallRejectsMissingOrInvalidHex)
{
    EXPECT_FALSE(parse("{\"id\":\"f1\",\"op\":\"install\"}").ok());
    const ParsedLine bad_hex = parse(
        "{\"id\":\"f1\",\"op\":\"install\",\"frames\":\"zz\"}");
    ASSERT_FALSE(bad_hex.ok());
    EXPECT_NE(bad_hex.error.find("hex"), std::string::npos);
    EXPECT_FALSE(
        parse("{\"id\":\"f1\",\"op\":\"install\",\"frames\":7}").ok());
}

TEST(RouterInputs, InstallThenPullRoundTripsThroughTheDaemon)
{
    Service daemon(quietConfig());
    const std::string log = encodeFrame("check|radix|x#u0", "unit") +
                            encodeFrame("check|radix|x#log", "logbytes");
    const std::string install_response = daemon.handleLine(
        "{\"id\":\"f1\",\"op\":\"install\",\"frames\":\"" +
        hexEncode(log) + "\"}");
    EXPECT_EQ(install_response,
              "{\"id\":\"f1\",\"status\":\"ok\",\"installed\":2,"
              "\"duplicates\":0}");

    // Installing the same frames again is a pure no-op.
    const std::string again = daemon.handleLine(
        "{\"id\":\"f2\",\"op\":\"install\",\"frames\":\"" +
        hexEncode(log) + "\"}");
    EXPECT_NE(again.find("\"installed\":0,\"duplicates\":2"),
              std::string::npos);

    // Pulling from zero returns the installed frames byte-exactly.
    const std::string pull_response = daemon.handleLine(
        "{\"id\":\"l1\",\"op\":\"pull\",\"from\":0,\"max\":65536}");
    const auto parsed = parseJson(pull_response);
    ASSERT_TRUE(parsed.has_value());
    const JsonValue *frames_field = parsed->find("frames");
    ASSERT_NE(frames_field, nullptr);
    const auto raw = hexDecode(frames_field->text);
    ASSERT_TRUE(raw.has_value());
    EXPECT_EQ(*raw, log);
    const JsonValue *eof = parsed->find("eof");
    ASSERT_NE(eof, nullptr);
    EXPECT_TRUE(eof->boolean);
}

TEST(RouterInputs, InstallRejectsCorruptAndTornFrames)
{
    Service daemon(quietConfig());
    std::string corrupt = encodeFrame("k", "value");
    corrupt[corrupt.size() - 1] ^= 0x20;
    const std::string corrupt_response = daemon.handleLine(
        "{\"id\":\"f1\",\"op\":\"install\",\"frames\":\"" +
        hexEncode(corrupt) + "\"}");
    EXPECT_NE(corrupt_response.find("\"status\":\"error\""),
              std::string::npos);
    EXPECT_NE(corrupt_response.find("corrupt"), std::string::npos);

    const std::string whole = encodeFrame("k", "value");
    const std::string torn = whole.substr(0, whole.size() - 3);
    const std::string torn_response = daemon.handleLine(
        "{\"id\":\"f2\",\"op\":\"install\",\"frames\":\"" +
        hexEncode(torn) + "\"}");
    EXPECT_NE(torn_response.find("\"status\":\"error\""),
              std::string::npos);
    EXPECT_NE(torn_response.find("torn"), std::string::npos);
}

TEST(RouterInputs, PullBeyondTheLogIsAnError)
{
    Service daemon(quietConfig());
    const std::string response = daemon.handleLine(
        "{\"id\":\"l1\",\"op\":\"pull\",\"from\":999,\"max\":4096}");
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos);
}

TEST(RouterInputs, InterleavedPipelinedLinesAnswerInOrder)
{
    // A router multiplexes many clients onto one backend connection,
    // so the daemon sees checks, pulls, installs, and stats
    // interleaved back to back. Each line must get exactly one
    // response carrying its own id, in submission order.
    Service daemon(quietConfig());
    const std::string frames = hexEncode(encodeFrame("side#u0", "x"));
    const std::vector<std::pair<std::string, std::string>> traffic = {
        {"p0", "{\"id\":\"p0\",\"op\":\"ping\"}"},
        {"c0", "{\"id\":\"c0\",\"op\":\"check\",\"app\":\"radix\","
               "\"runs\":4,\"input\":\"dev\"}"},
        {"l0", "{\"id\":\"l0\",\"op\":\"pull\",\"from\":0}"},
        {"f0", "{\"id\":\"f0\",\"op\":\"install\",\"frames\":\"" +
                   frames + "\"}"},
        {"s0", "{\"id\":\"s0\",\"op\":\"stats\"}"},
        {"c1", "{\"id\":\"c1\",\"op\":\"check\",\"app\":\"radix\","
               "\"runs\":4,\"input\":\"dev\"}"},
        {"l1", "{\"id\":\"l1\",\"op\":\"pull\",\"from\":0}"},
    };
    for (const auto &[id, line] : traffic) {
        const std::string response = daemon.handleLine(line);
        EXPECT_EQ(response.find("{\"id\":\"" + id + "\""), 0u) << line;
        EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
            << response;
    }
    // The second pull sees strictly more log than the first: the
    // check's frames and the installed side frame both landed.
    const auto last = parseJson(daemon.handleLine(
        "{\"id\":\"l2\",\"op\":\"pull\",\"from\":0,\"max\":1048576}"));
    ASSERT_TRUE(last.has_value());
    EXPECT_TRUE(last->find("eof")->boolean);
    EXPECT_GT(last->find("frames")->text.size(), 0u);
}

TEST(RouterInputs, ErrorFramesCarryTheRequestIdFirst)
{
    // The router routes responses by a prefix scan of the id, so even
    // error frames must render the id as the first member.
    Service daemon(quietConfig());
    for (const std::string &line :
         {std::string("{\"id\":\"e0\",\"op\":\"check\"}"),
          std::string("{\"id\":\"e1\",\"op\":\"pull\",\"from\":7}"),
          std::string("{\"id\":\"e2\",\"op\":\"install\","
                      "\"frames\":\"aa\"}"),
          std::string("{\"id\":\"e3\",\"op\":\"nonsense\"}")}) {
        const std::string response = daemon.handleLine(line);
        EXPECT_NE(response.find("\"status\":\"error\""),
                  std::string::npos)
            << line;
        const std::string id_prefix = "{\"id\":\"";
        ASSERT_EQ(response.find(id_prefix), 0u) << response;
        const std::size_t end =
            response.find('"', id_prefix.size());
        const std::string id =
            response.substr(id_prefix.size(), end - id_prefix.size());
        EXPECT_EQ(id.size(), 2u);
        EXPECT_EQ(id[0], 'e');
    }
}

TEST(RouterInputs, DrainingAllowsPullButRefusesInstall)
{
    // During drain the router still ships the log tail (pull), but
    // nothing new may land (install): the store must be immutable by
    // the time the daemon exits.
    Service daemon(quietConfig());
    daemon.handleLine("{\"id\":\"c0\",\"op\":\"check\",\"app\":\"radix\","
                      "\"runs\":4,\"input\":\"dev\"}");
    daemon.handleLine("{\"id\":\"d0\",\"op\":\"drain\"}");

    const std::string pull_response = daemon.handleLine(
        "{\"id\":\"l0\",\"op\":\"pull\",\"from\":0,\"max\":1048576}");
    EXPECT_NE(pull_response.find("\"status\":\"ok\""),
              std::string::npos);
    const auto parsed = parseJson(pull_response);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_GT(parsed->find("frames")->text.size(), 0u);

    const std::string install_response = daemon.handleLine(
        "{\"id\":\"f0\",\"op\":\"install\",\"frames\":\"" +
        hexEncode(encodeFrame("k", "v")) + "\"}");
    EXPECT_NE(install_response.find("\"draining\""), std::string::npos);
}

TEST(RouterInputs, StatsExposeTheFleetCounters)
{
    Service daemon(quietConfig());
    daemon.handleLine("{\"id\":\"f0\",\"op\":\"install\",\"frames\":\"" +
                      hexEncode(encodeFrame("k0", "v0") +
                                encodeFrame("k1", "v1")) +
                      "\"}");
    const std::string response =
        daemon.handleLine("{\"id\":\"s0\",\"op\":\"stats\"}");
    const auto parsed = parseJson(response);
    ASSERT_TRUE(parsed.has_value());
    const JsonValue *stats = parsed->find("stats");
    ASSERT_NE(stats, nullptr);
    const JsonValue *installed = stats->find("framesInstalled");
    ASSERT_NE(installed, nullptr);
    EXPECT_EQ(installed->asU64().value_or(0), 2u);
    const JsonValue *appended = stats->find("framesAppended");
    ASSERT_NE(appended, nullptr);
    EXPECT_EQ(appended->asU64().value_or(0), 2u);
    const JsonValue *bytes = stats->find("storeBytes");
    ASSERT_NE(bytes, nullptr);
    EXPECT_GT(bytes->asU64().value_or(0), 0u);
}

TEST(RouterInputs, JsonParserSurvivesEveryPrefixOfAFleetDocument)
{
    // The config parser's truncation sweep, applied at the JSON layer
    // the daemon itself uses on every untrusted line.
    const std::string doc =
        "{\"vnodes\":32,\"ship\":\"sync\",\"backends\":["
        "{\"name\":\"b0\",\"socket\":\"/tmp/b0.sock\"}]}";
    for (std::size_t len = 0; len < doc.size(); ++len) {
        std::string error;
        const auto parsed = parseJson(doc.substr(0, len), &error);
        EXPECT_FALSE(parsed.has_value()) << "prefix length " << len;
        EXPECT_FALSE(error.empty()) << "prefix length " << len;
    }
    EXPECT_TRUE(parseJson(doc).has_value());
}

} // namespace icheck::service
