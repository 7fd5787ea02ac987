// Deterministic mutation fuzz of the ECO script parser behind
// `cong93 session`.  Each trial mutates a small script that exercises every
// command with a fixed-seed generator -- byte flips, token drops and
// duplicates, line swaps, and numbers replaced by out-of-range values
// (beyond int32, beyond +-kMaxRoutableCoord, negative ids and indices,
// non-finite reals) -- then replays it in process through run_cli.
// Contract: the replay either succeeds or throws std::invalid_argument,
// which tools/cong93_main.cpp turns into exit status 2.  Any other
// exception, a crash or a hang fails the test.
#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"

namespace cong93 {
namespace {

const char* const kScript =
    "# ECO fuzz seed script\n"
    "gen 2 4 9\n"
    "net 2000 2000 100 100 3900 3900 50 3000\n"
    "move 2 0 250 175\n"
    "add 2 3500 200 2e-12\n"
    "remove 1 1\n"
    "retech 0 cmos05 2\n"
    "route 2\n"
    "stats\n"
    "print\n";

std::vector<std::string> split_lines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    return lines;
}

std::vector<std::string> split_tokens(const std::string& line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    for (std::string tok; is >> tok;) tokens.push_back(tok);
    return tokens;
}

std::string join(const std::vector<std::string>& parts, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i != 0) out += sep;
        out += parts[i];
    }
    return out;
}

bool is_number(const std::string& tok)
{
    return !tok.empty() &&
           (std::isdigit(static_cast<unsigned char>(tok[0])) != 0 ||
            tok[0] == '-');
}

/// One random mutation of `text`.
std::string mutate(const std::string& text, std::mt19937_64& rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::vector<std::string> lines = split_lines(text);
    switch (pick(5)) {
    case 0: {  // byte flip
        std::string out = text;
        out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
        return out;
    }
    case 1:    // token drop
    case 2: {  // token duplicate
        const bool drop = pick(2) == 0;
        std::string& line = lines[pick(lines.size())];
        std::vector<std::string> tokens = split_tokens(line);
        if (tokens.empty()) break;
        const std::size_t t = pick(tokens.size());
        const auto at = tokens.begin() + static_cast<std::ptrdiff_t>(t);
        if (drop)
            tokens.erase(at);
        else
            tokens.insert(at, std::string(*at));
        line = join(tokens, ' ');
        break;
    }
    case 3:  // line swap
        std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
        break;
    default: {  // number replaced by an out-of-range or non-finite value
        static const char* const kExtremes[] = {
            "-1", "-268435457", "268435457", "2147483648", "-2147483649",
            "4294967296", "9223372036854775807", "-9223372036854775808",
            "99999999999999999999", "nan", "inf", "-inf", "1e308", "-0"};
        std::vector<std::pair<std::size_t, std::size_t>> numbers;
        std::vector<std::vector<std::string>> tokens(lines.size());
        for (std::size_t l = 0; l < lines.size(); ++l) {
            if (lines[l].rfind('#', 0) == 0) continue;
            tokens[l] = split_tokens(lines[l]);
            for (std::size_t t = 0; t < tokens[l].size(); ++t)
                if (is_number(tokens[l][t])) numbers.emplace_back(l, t);
        }
        if (numbers.empty()) break;
        const auto [l, t] = numbers[pick(numbers.size())];
        tokens[l][t] = kExtremes[pick(std::size(kExtremes))];
        lines[l] = join(tokens[l], ' ');
        break;
    }
    }
    return join(lines, '\n') + '\n';
}

TEST(EcoScriptFuzz, MutatedScriptsSucceedOrAreRejected)
{
    const CliOptions opts =
        parse_cli({"session", "--in", "unused", "--threads", "1"});
    {
        const std::string clean = kScript;
        std::ostringstream out;
        ASSERT_EQ(run_cli(opts, out, &clean), 0) << "the seed script must run";
    }

    std::mt19937_64 rng(0xEC05C417);
    std::size_t ok = 0, rejected = 0;
    constexpr int kTrials = 3000;
    for (int trial = 0; trial < kTrials; ++trial) {
        std::string text = kScript;
        const int mutations = 1 + static_cast<int>(rng() % 3);
        for (int m = 0; m < mutations; ++m) text = mutate(text, rng);
        SCOPED_TRACE("trial " + std::to_string(trial) + "\n" + text);

        std::ostringstream out;
        try {
            EXPECT_EQ(run_cli(opts, out, &text), 0);
            ++ok;
        } catch (const std::invalid_argument&) {
            ++rejected;  // exit status 2
        } catch (const std::exception& e) {
            ADD_FAILURE() << "escaped as " << e.what();
        }
    }
    // The mutations must reach both outcomes, or the fuzz is moot.
    EXPECT_GT(ok, 0u);
    EXPECT_GT(rejected, 0u);
}

/// Values that used to be narrowed silently are script errors now.
TEST(EcoScriptFuzz, OutOfRangeValuesAreScriptErrors)
{
    const CliOptions opts = parse_cli({"session", "--in", "unused"});
    for (const char* script :
         {"net 0 0 268435457 5\n", "net 0 0 4294967301 5\n",
          "net -268435457 0 5 5\n", "net 0 0 5 5\nmove 0 -1 1 1\n",
          "net 0 0 5 5\nmove -1 0 1 1\n", "net 0 0 5 5\nremove 0 -1\n",
          "net 0 0 5 5\nroute -1\n", "gen 0 4\n", "gen 1000001 4\n",
          "gen 2 4097\n", "gen 4294967297 4\n",
          "net 0 0 5 5\nretech 0 mcm -2\n", "net 0 0 5 5\nretech 0 mcm 0\n",
          "net 0 0 5 5\nadd 0 3 3 inf\n"}) {
        const std::string text = script;
        std::ostringstream out;
        EXPECT_THROW(run_cli(opts, out, &text), std::invalid_argument) << script;
    }
}

}  // namespace
}  // namespace cong93
