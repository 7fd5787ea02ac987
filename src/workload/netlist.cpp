#include "workload/netlist.h"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <string>

namespace cong93 {
namespace {

constexpr const char* kMagic = "# cong93 netlist v1";

/// Shortest round-trip decimal form (so parse(format(x)) == x bit-for-bit).
std::string fmt_double(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

/// Finite doubles only: std::from_chars also accepts "nan" and "inf", which
/// no crit/rat/cap attribute may carry.
bool parse_double(const std::string& tok, double& out)
{
    const char* first = tok.data();
    const char* last = tok.data() + tok.size();
    const auto res = std::from_chars(first, last, out);
    return res.ec == std::errc{} && res.ptr == last && std::isfinite(out);
}

bool parse_coord(const std::string& tok, Coord& out)
{
    long long v = 0;
    const char* first = tok.data();
    const char* last = tok.data() + tok.size();
    const auto res = std::from_chars(first, last, v);
    if (res.ec != std::errc{} || res.ptr != last) return false;
    if (v < std::numeric_limits<Coord>::min() || v > std::numeric_limits<Coord>::max())
        return false;
    out = static_cast<Coord>(v);
    return true;
}

bool parse_count(const std::string& tok, std::size_t& out)
{
    unsigned long long v = 0;
    const char* first = tok.data();
    const char* last = tok.data() + tok.size();
    const auto res = std::from_chars(first, last, v);
    if (res.ec != std::errc{} || res.ptr != last) return false;
    out = static_cast<std::size_t>(v);
    return true;
}

/// Splits one raw line into whitespace tokens, dropping '#' comments.
void tokenize(const std::string& line, std::vector<std::string>& tokens)
{
    tokens.clear();
    std::string tok;
    for (char c : line) {
        if (c == '#') break;
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            if (!tok.empty()) tokens.push_back(std::move(tok)), tok.clear();
        } else {
            tok.push_back(c);
        }
    }
    if (!tok.empty()) tokens.push_back(std::move(tok));
}

}  // namespace

std::string format_netlist(const std::vector<WorkItem>& items,
                           const std::string& design_name)
{
    std::size_t writable = 0;
    for (const WorkItem& item : items)
        if (item.meta.parse_error.empty()) ++writable;

    std::ostringstream out;
    out << kMagic << '\n';
    out << "design " << design_name << ' ' << writable << '\n';
    std::size_t index = 0;
    for (const WorkItem& item : items) {
        ++index;
        if (!item.meta.parse_error.empty()) continue;
        const Net& net = item.net;
        const NetMeta& meta = item.meta;
        out << "net "
            << (meta.name.empty() ? "n" + std::to_string(index - 1) : meta.name)
            << ' ' << net.sinks.size() + 1;
        if (meta.criticality != 1.0) out << " crit " << fmt_double(meta.criticality);
        if (meta.required_arrival_s >= 0.0)
            out << " rat " << fmt_double(meta.required_arrival_s);
        out << '\n';
        out << "source " << net.source.x << ' ' << net.source.y << '\n';
        for (std::size_t i = 0; i < net.sinks.size(); ++i) {
            out << "sink " << net.sinks[i].x << ' ' << net.sinks[i].y;
            if (i < net.sink_caps.size() && net.sink_caps[i] >= 0.0)
                out << " cap " << fmt_double(net.sink_caps[i]);
            if (i < meta.sink_required_arrival_s.size() &&
                meta.sink_required_arrival_s[i] >= 0.0)
                out << " rat " << fmt_double(meta.sink_required_arrival_s[i]);
            out << '\n';
        }
        out << "end\n";
    }
    return out.str();
}

NetlistReader::NetlistReader(std::istream& in) : in_(&in)
{
    // The magic line is formally a comment, so check it on the raw text
    // before token parsing starts.
    std::string raw;
    bool found_magic = false;
    while (std::getline(*in_, raw)) {
        ++line_no_;
        while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ' || raw.back() == '\t'))
            raw.pop_back();
        if (raw.empty()) continue;
        if (raw != kMagic)
            throw std::invalid_argument("netlist: missing magic line '" +
                                        std::string(kMagic) + "' (line " +
                                        std::to_string(line_no_) + ")");
        found_magic = true;
        break;
    }
    if (!found_magic)
        throw std::invalid_argument("netlist: empty input (no magic line)");

    std::vector<std::string> tokens;
    if (!next_line(tokens) || tokens.size() != 3 || tokens[0] != "design" ||
        !parse_count(tokens[2], declared_count_))
        throw std::invalid_argument(
            "netlist: expected 'design <name> <net-count>' after the magic line");
    design_name_ = tokens[1];
}

bool NetlistReader::next_line(std::vector<std::string>& tokens)
{
    if (has_pending_) {
        tokens = pending_;
        has_pending_ = false;
        return true;
    }
    std::string raw;
    while (std::getline(*in_, raw)) {
        ++line_no_;
        tokenize(raw, tokens);
        if (!tokens.empty()) return true;
    }
    return false;
}

bool NetlistReader::read_item(WorkItem& item)
{
    item = WorkItem{};
    std::vector<std::string> tokens;
    if (!next_line(tokens)) {
        if (yielded_ < declared_count_) {
            item.meta.parse_error =
                "truncated design: header declares " + std::to_string(declared_count_) +
                " nets, file ends after " + std::to_string(yielded_);
            done_ = true;
            return true;
        }
        done_ = true;
        return false;
    }

    std::string error;
    const std::size_t block_line = line_no_;
    bool block_open = false;  // inside net ... end, must recover on error
    bool have_source = false;
    bool have_end = false;
    std::size_t declared_degree = 0;

    const auto fail = [&](const std::string& msg) {
        if (error.empty()) error = "line " + std::to_string(line_no_) + ": " + msg;
    };

    if (tokens[0] != "net" || tokens.size() < 3) {
        fail("expected 'net <name> <degree>', got '" + tokens[0] + "'");
    } else {
        block_open = true;
        item.meta.name = tokens[1];
        if (!parse_count(tokens[2], declared_degree) || declared_degree < 1)
            fail("bad degree '" + tokens[2] + "' for net '" + item.meta.name + "'");
        for (std::size_t i = 3; i + 1 < tokens.size() && error.empty(); i += 2) {
            double v = 0.0;
            if (!parse_double(tokens[i + 1], v)) {
                fail("bad value '" + tokens[i + 1] + "' for '" + tokens[i] + "'");
            } else if (tokens[i] == "crit") {
                // A negative weight would turn a violation into TNS credit.
                if (v < 0.0)
                    fail("negative crit '" + tokens[i + 1] + "' for net '" +
                         item.meta.name + "'");
                item.meta.criticality = v;
            } else if (tokens[i] == "rat") {
                item.meta.required_arrival_s = v;
            } else {
                fail("unknown net attribute '" + tokens[i] + "'");
            }
        }
        if (error.empty() && tokens.size() % 2 == 0)
            fail("dangling attribute token '" + tokens.back() + "'");
        if (error.empty() && !seen_names_.insert(item.meta.name).second)
            fail("duplicate net name '" + item.meta.name + "'");
    }

    while (block_open && !have_end) {
        if (!next_line(tokens)) {
            fail("truncated net '" + item.meta.name + "': EOF before 'end'");
            break;
        }
        if (tokens[0] == "end") {
            have_end = true;
        } else if (tokens[0] == "net") {
            fail("net '" + item.meta.name + "' missing 'end'");
            pending_ = tokens;
            has_pending_ = true;
            break;
        } else if (tokens[0] == "source") {
            if (error.empty() && have_source) fail("duplicate source line");
            have_source = true;
            Coord x = 0, y = 0;
            if (tokens.size() != 3 || !parse_coord(tokens[1], x) || !parse_coord(tokens[2], y))
                fail("bad source line");
            else
                item.net.source = Point{x, y};
        } else if (tokens[0] == "sink") {
            Coord x = 0, y = 0;
            if (tokens.size() < 3 || !parse_coord(tokens[1], x) || !parse_coord(tokens[2], y)) {
                fail("bad sink line");
                continue;
            }
            double cap = -1.0, rat = -1.0;
            for (std::size_t i = 3; i + 1 < tokens.size(); i += 2) {
                double v = 0.0;
                if (!parse_double(tokens[i + 1], v))
                    fail("bad value '" + tokens[i + 1] + "' for '" + tokens[i] + "'");
                else if (tokens[i] == "cap")
                    cap = v;
                else if (tokens[i] == "rat")
                    rat = v;
                else
                    fail("unknown sink attribute '" + tokens[i] + "'");
            }
            if (tokens.size() % 2 == 0) fail("dangling attribute token '" + tokens.back() + "'");
            item.net.sinks.push_back(Point{x, y});
            item.net.sink_caps.push_back(cap);
            item.meta.sink_required_arrival_s.push_back(rat);
        } else {
            fail("unknown keyword '" + tokens[0] + "'");
        }
    }

    if (error.empty() && block_open) {
        if (!have_source) fail("net '" + item.meta.name + "' has no source");
        const std::size_t pins = item.net.sinks.size() + 1;
        if (error.empty() && pins != declared_degree)
            fail("net '" + item.meta.name + "' pin count mismatch: degree " +
                 std::to_string(declared_degree) + ", listed " + std::to_string(pins) +
                 " pins");
    }
    if (error.empty() && yielded_ >= declared_count_)
        fail("net '" + item.meta.name + "' exceeds declared net count " +
             std::to_string(declared_count_));

    if (!error.empty()) {
        // Recover to the next block boundary so one bad block costs one item.
        if (block_open && !have_end && !has_pending_) {
            std::vector<std::string> skip;
            while (next_line(skip)) {
                if (skip[0] == "end") break;
                if (skip[0] == "net") {
                    pending_ = skip;
                    has_pending_ = true;
                    break;
                }
            }
        }
        const std::string name = item.meta.name;
        item = WorkItem{};
        item.meta.name = name;
        item.meta.parse_error = error;
        (void)block_line;
    } else {
        // Canonicalize all-default optional columns away so a parsed item
        // re-serializes byte-identically.
        bool any_cap = false;
        for (double c : item.net.sink_caps) any_cap |= c >= 0.0;
        if (!any_cap) item.net.sink_caps.clear();
        bool any_rat = false;
        for (double r : item.meta.sink_required_arrival_s) any_rat |= r >= 0.0;
        if (!any_rat) item.meta.sink_required_arrival_s.clear();
    }
    ++yielded_;
    return true;
}

std::size_t NetlistReader::pull(std::vector<WorkItem>& out, std::size_t max_items)
{
    std::size_t n = 0;
    WorkItem item;
    while (n < max_items && !done_ && read_item(item)) {
        out.push_back(std::move(item));
        ++n;
    }
    return n;
}

NetlistDesign parse_netlist(const std::string& text)
{
    std::istringstream in(text);
    NetlistReader reader(in);
    NetlistDesign design;
    design.name = reader.design_name();
    // No reserve(size_hint()): the header's net count is untrusted input.
    while (reader.pull(design.items, 1024) != 0) {
    }
    return design;
}

}  // namespace cong93
