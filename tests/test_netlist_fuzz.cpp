// Deterministic mutation fuzz of the netlist reader and the streaming
// router behind it.  Each trial mutates examples/chip_small.nets with a
// fixed-seed generator -- byte flips, token drops and duplicates, line
// swaps, and numbers replaced by nan/inf/1e308/2^28+-1 -- then streams the
// result through route_stream into a ChipAggregator.  The example is
// timing-clean, so every other trial starts from a copy whose RATs are all
// 0: there every constrained net violates, and a corrupted crit reaches TNS.
// Invariants:
//   * a malformed header may throw std::invalid_argument from the
//     NetlistReader constructor (its documented contract); nothing throws
//     out of route_stream;
//   * every result is invalid_input or carries finite delays and a
//     non-negative wirelength;
//   * the aggregated WNS/TNS stay finite and TNS never turns positive.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/pipeline.h"
#include "report/chip_report.h"
#include "tech/technology.h"
#include "workload/netlist.h"
#include "workload/stream.h"

namespace cong93 {
namespace {

std::string read_example()
{
    std::ifstream in(std::string(CONG93_EXAMPLES_DIR) + "/chip_small.nets");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

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
    default: {  // number replaced by an extreme value
        static const char* const kExtremes[] = {
            "nan", "-nan", "inf", "-inf", "1e308", "-1e308",
            "268435455", "268435457", "-268435455", "-268435457"};
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

/// `text` with every "rat <seconds>" value replaced by 0.
std::string zero_rats(const std::string& text)
{
    std::vector<std::string> lines = split_lines(text);
    for (std::string& line : lines) {
        std::vector<std::string> tokens = split_tokens(line);
        if (tokens.empty() || tokens[0][0] == '#') continue;
        for (std::size_t t = 0; t + 1 < tokens.size(); ++t)
            if (tokens[t] == "rat") tokens[t + 1] = "0";
        line = join(tokens, ' ');
    }
    return join(lines, '\n') + '\n';
}

TEST(NetlistFuzz, MutatedDesignsNeverThrowOrReportNonFiniteNumbers)
{
    const std::string clean_text = read_example();
    ASSERT_FALSE(clean_text.empty()) << "examples/chip_small.nets missing";
    const std::string tight_text = zero_rats(clean_text);
    const Technology tech = mcm_technology();
    PipelineOptions popts;
    popts.threads = 1;
    StreamOptions sopts;
    sopts.chunk_nets = 3;

    std::mt19937_64 rng(0x5EED1993);
    std::size_t header_rejects = 0, invalid = 0, routed = 0;
    constexpr int kTrials = 3000;
    for (int trial = 0; trial < kTrials; ++trial) {
        std::string text = trial % 2 == 0 ? clean_text : tight_text;
        const int mutations = 1 + static_cast<int>(rng() % 3);
        for (int m = 0; m < mutations; ++m) text = mutate(text, rng);
        SCOPED_TRACE("trial " + std::to_string(trial) + "\n" + text);

        std::istringstream in(text);
        std::optional<NetlistReader> reader;
        try {
            reader.emplace(in);
        } catch (const std::invalid_argument&) {
            ++header_rejects;
            continue;
        }
        ChipAggregator agg(tech, 4);
        std::vector<NetRouteResult> results;
        ASSERT_NO_THROW(route_stream(
            *reader, tech, popts, sopts,
            [&](std::size_t first, const std::vector<WorkItem>& items,
                const std::vector<NetRouteResult>& r) {
                agg.add_chunk(first, items, r);
                results.insert(results.end(), r.begin(), r.end());
            }));
        for (const NetRouteResult& r : results) {
            if (r.status == RouteStatus::invalid_input) {
                ++invalid;
                continue;
            }
            routed += is_routed(r.status) ? 1 : 0;
            EXPECT_TRUE(std::isfinite(r.rph_s));
            EXPECT_TRUE(std::isfinite(r.elmore_max_s));
            EXPECT_TRUE(std::isfinite(r.wiresized_delay_s));
            EXPECT_TRUE(std::isfinite(r.moment_elmore_max_s));
            EXPECT_GE(r.wirelength, 0);
        }
        const ChipSummary& s = agg.summary();
        EXPECT_TRUE(std::isfinite(s.wns_s));
        EXPECT_TRUE(std::isfinite(s.tns_s));
        EXPECT_LE(s.tns_s, 0.0);
    }
    // The mutations must exercise all three outcomes, or the fuzz is moot.
    EXPECT_GT(header_rejects, 0u);
    EXPECT_GT(invalid, 0u);
    EXPECT_GT(routed, 0u);
}

}  // namespace
}  // namespace cong93
