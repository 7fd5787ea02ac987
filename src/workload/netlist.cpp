#include "workload/netlist.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <string>

#include "geom/text_number.h"

namespace cong93 {
namespace {

constexpr const char* kMagic = "# cong93 netlist v1";

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

/// Splits one raw line into whitespace tokens (views into `line`),
/// dropping '#' comments.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens)
{
    tokens.clear();
    std::size_t i = 0;
    while (i < line.size() && line[i] != '#') {
        if (is_space(line[i])) {
            ++i;
            continue;
        }
        const std::size_t start = i;
        while (i < line.size() && !is_space(line[i]) && line[i] != '#') ++i;
        tokens.push_back(line.substr(start, i - start));
    }
}

/// Sinks reserved up front from a block's declared degree: the degree is
/// untrusted input, so the reservation is capped.
constexpr std::size_t kMaxReservedSinks = 1024;

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
    bool found_magic = false;
    while (std::getline(*in_, line_)) {
        ++line_no_;
        while (!line_.empty() &&
               (line_.back() == '\r' || line_.back() == ' ' || line_.back() == '\t'))
            line_.pop_back();
        if (line_.empty()) continue;
        if (line_ != kMagic)
            throw std::invalid_argument("netlist: missing magic line '" +
                                        std::string(kMagic) + "' (line " +
                                        std::to_string(line_no_) + ")");
        found_magic = true;
        break;
    }
    if (!found_magic)
        throw std::invalid_argument("netlist: empty input (no magic line)");

    if (!next_line() || tokens_.size() != 3 || tokens_[0] != "design" ||
        !parse_count(tokens_[2], declared_count_))
        throw std::invalid_argument(
            "netlist: expected 'design <name> <net-count>' after the magic line");
    design_name_ = tokens_[1];
}

bool NetlistReader::next_line()
{
    if (has_pending_) {
        has_pending_ = false;
        return true;
    }
    while (std::getline(*in_, line_)) {
        ++line_no_;
        tokenize(line_, tokens_);
        if (!tokens_.empty()) return true;
    }
    return false;
}

bool NetlistReader::read_item(WorkItem& item)
{
    item = WorkItem{};
    if (!next_line()) {
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

    const std::vector<std::string_view>& tokens = tokens_;
    std::string error;
    bool block_open = false;  // inside net ... end, must recover on error
    bool have_source = false;
    bool have_end = false;
    std::size_t declared_degree = 0;
    caps_.clear();
    rats_.clear();

    const auto fail = [&](const std::string& msg) {
        if (error.empty()) error = "line " + std::to_string(line_no_) + ": " + msg;
    };
    const auto str = [](std::string_view tok) { return std::string(tok); };

    if (tokens[0] != "net" || tokens.size() < 3) {
        fail("expected 'net <name> <degree>', got '" + str(tokens[0]) + "'");
    } else {
        block_open = true;
        item.meta.name = tokens[1];
        if (!parse_count(tokens[2], declared_degree) || declared_degree < 1)
            fail("bad degree '" + str(tokens[2]) + "' for net '" + item.meta.name + "'");
        else
            item.net.sinks.reserve(std::min(declared_degree - 1, kMaxReservedSinks));
        for (std::size_t i = 3; i + 1 < tokens.size() && error.empty(); i += 2) {
            double v = 0.0;
            if (!parse_double(tokens[i + 1], v)) {
                fail("bad value '" + str(tokens[i + 1]) + "' for '" + str(tokens[i]) + "'");
            } else if (tokens[i] == "crit") {
                // A negative weight would turn a violation into TNS credit.
                if (v < 0.0)
                    fail("negative crit '" + str(tokens[i + 1]) + "' for net '" +
                         item.meta.name + "'");
                item.meta.criticality = v;
            } else if (tokens[i] == "rat") {
                item.meta.required_arrival_s = v;
            } else {
                fail("unknown net attribute '" + str(tokens[i]) + "'");
            }
        }
        if (error.empty() && tokens.size() % 2 == 0)
            fail("dangling attribute token '" + str(tokens.back()) + "'");
        if (error.empty() && !seen_names_.insert(item.meta.name).second)
            fail("duplicate net name '" + item.meta.name + "'");
    }

    while (block_open && !have_end) {
        if (!next_line()) {
            fail("truncated net '" + item.meta.name + "': EOF before 'end'");
            break;
        }
        if (tokens[0] == "end") {
            have_end = true;
        } else if (tokens[0] == "net") {
            fail("net '" + item.meta.name + "' missing 'end'");
            has_pending_ = true;
            break;
        } else if (tokens[0] == "source") {
            if (error.empty() && have_source) fail("duplicate source line");
            have_source = true;
            Coord x = 0, y = 0;
            if (tokens.size() != 3 || !parse_int32(tokens[1], x) || !parse_int32(tokens[2], y))
                fail("bad source line");
            else
                item.net.source = Point{x, y};
        } else if (tokens[0] == "sink") {
            Coord x = 0, y = 0;
            if (tokens.size() < 3 || !parse_int32(tokens[1], x) || !parse_int32(tokens[2], y)) {
                fail("bad sink line");
                continue;
            }
            double cap = -1.0, rat = -1.0;
            for (std::size_t i = 3; i + 1 < tokens.size(); i += 2) {
                double v = 0.0;
                if (!parse_double(tokens[i + 1], v))
                    fail("bad value '" + str(tokens[i + 1]) + "' for '" + str(tokens[i]) + "'");
                else if (tokens[i] == "cap")
                    cap = v;
                else if (tokens[i] == "rat")
                    rat = v;
                else
                    fail("unknown sink attribute '" + str(tokens[i]) + "'");
            }
            if (tokens.size() % 2 == 0)
                fail("dangling attribute token '" + str(tokens.back()) + "'");
            item.net.sinks.push_back(Point{x, y});
            caps_.push_back(cap);
            rats_.push_back(rat);
        } else {
            fail("unknown keyword '" + str(tokens[0]) + "'");
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
            while (next_line()) {
                if (tokens[0] == "end") break;
                if (tokens[0] == "net") {
                    has_pending_ = true;
                    break;
                }
            }
        }
        std::string name = std::move(item.meta.name);
        item = WorkItem{};
        item.meta.name = std::move(name);
        item.meta.parse_error = std::move(error);
    } else {
        // All-default optional columns stay empty so a parsed item
        // re-serializes byte-identically.
        const auto any_set = [](const std::vector<double>& v) {
            return std::any_of(v.begin(), v.end(), [](double x) { return x >= 0.0; });
        };
        if (any_set(caps_)) item.net.sink_caps = caps_;
        if (any_set(rats_)) item.meta.sink_required_arrival_s = rats_;
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
