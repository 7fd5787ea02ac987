#include "rtree/io.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/text_number.h"
#include "rtree/metrics.h"

namespace cong93 {

std::string to_dot(const RoutingTree& tree)
{
    std::ostringstream os;
    os << "digraph routing_tree {\n  rankdir=LR;\n";
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        const auto& n = tree.node(id);
        os << "  n" << id << " [label=\"" << n.p.x << ',' << n.p.y << "\"";
        if (id == tree.root()) os << ", shape=box";
        else if (n.is_sink) os << ", peripheries=2";
        os << "];\n";
        if (n.parent != kNoNode)
            os << "  n" << n.parent << " -> n" << id << " [label=\""
               << tree.edge_length(id) << "\"];\n";
    }
    os << "}\n";
    return os.str();
}

std::string to_ascii(const RoutingTree& tree, int max_dim)
{
    Coord min_x = tree.point(tree.root()).x, max_x = min_x;
    Coord min_y = tree.point(tree.root()).y, max_y = min_y;
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const Point p = tree.point(static_cast<NodeId>(i));
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
    }
    const int w = static_cast<int>(max_x - min_x) + 1;
    const int h = static_cast<int>(max_y - min_y) + 1;
    if (w > max_dim || h > max_dim) return "(tree too large for ascii rendering)\n";

    std::vector<std::string> canvas(static_cast<std::size_t>(h), std::string(static_cast<std::size_t>(w), ' '));
    const auto put = [&](Coord x, Coord y, char c) {
        // y grows upward; the last canvas row is min_y.
        char& cell = canvas[static_cast<std::size_t>(max_y - y)][static_cast<std::size_t>(x - min_x)];
        // Precedence: S > x > + > wire.
        const auto rank = [](char ch) {
            switch (ch) {
            case 'S': return 4;
            case 'x': return 3;
            case '+': return 2;
            case '-':
            case '|': return 1;
            default: return 0;
            }
        };
        if (rank(c) > rank(cell)) cell = c;
    };

    tree.for_each_edge([&](NodeId id) {
        const Point a = tree.point(tree.node(id).parent);
        const Point b = tree.point(id);
        if (a.y == b.y) {
            for (Coord x = std::min(a.x, b.x); x <= std::max(a.x, b.x); ++x)
                put(x, a.y, '-');
        } else {
            for (Coord y = std::min(a.y, b.y); y <= std::max(a.y, b.y); ++y)
                put(a.x, y, '|');
        }
    });
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        const auto& n = tree.node(id);
        if (id == tree.root()) put(n.p.x, n.p.y, 'S');
        else if (n.is_sink) put(n.p.x, n.p.y, 'x');
        else put(n.p.x, n.p.y, '+');
    }

    std::ostringstream os;
    for (const auto& row : canvas) os << row << '\n';
    return os.str();
}

namespace {

/// Splits `text` into whitespace-token lines, dropping blanks and comments.
std::vector<std::vector<std::string>> token_lines(const std::string& text)
{
    std::vector<std::vector<std::string>> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::vector<std::string> tokens;
        std::string tok;
        while (ls >> tok) {
            if (tok.front() == '#') break;
            tokens.push_back(tok);
        }
        if (!tokens.empty()) lines.push_back(std::move(tokens));
    }
    return lines;
}

// Whole-token readers with the netlist's number rules (geom/text_number.h);
// every malformed token throws std::invalid_argument naming it.
std::int32_t to_int32(const std::string& s, const char* what)
{
    std::int32_t v = 0;
    if (!parse_int32(s, v)) throw std::invalid_argument(std::string("bad ") + what + ": " + s);
    return v;
}

double to_cap(const std::string& s)
{
    double v = 0.0;
    if (!parse_double(s, v)) throw std::invalid_argument("bad capacitance: " + s);
    return v;
}

Point to_point(const std::string& x, const std::string& y)
{
    return Point{to_int32(x, "coordinate"), to_int32(y, "coordinate")};
}

}  // namespace

std::string format_net(const Net& net)
{
    std::ostringstream os;
    os << "net\n";
    os << "source " << net.source.x << ' ' << net.source.y << '\n';
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        os << "sink " << net.sinks[i].x << ' ' << net.sinks[i].y;
        if (net.sink_cap(i) >= 0.0) os << ' ' << fmt_double(net.sink_cap(i));
        os << '\n';
    }
    os << "end\n";
    return os.str();
}

std::string format_nets(const std::vector<Net>& nets)
{
    std::string out;
    for (const Net& n : nets) out += format_net(n);
    return out;
}

std::vector<Net> parse_nets(const std::string& text)
{
    std::vector<Net> nets;
    Net cur;
    bool in_net = false;
    bool have_source = false;
    for (const auto& tokens : token_lines(text)) {
        const std::string& kw = tokens[0];
        if (kw == "net") {
            if (in_net) throw std::invalid_argument("parse_net: nested 'net'");
            in_net = true;
            have_source = false;
            cur = Net{};
        } else if (kw == "source") {
            if (!in_net || tokens.size() != 3)
                throw std::invalid_argument("parse_net: bad 'source' line");
            cur.source = to_point(tokens[1], tokens[2]);
            have_source = true;
        } else if (kw == "sink") {
            if (!in_net || tokens.size() < 3 || tokens.size() > 4)
                throw std::invalid_argument("parse_net: bad 'sink' line");
            cur.sinks.push_back(to_point(tokens[1], tokens[2]));
            cur.sink_caps.push_back(tokens.size() == 4 ? to_cap(tokens[3]) : -1.0);
        } else if (kw == "end") {
            if (!in_net || !have_source || cur.sinks.empty())
                throw std::invalid_argument("parse_net: incomplete net");
            nets.push_back(cur);
            in_net = false;
        } else {
            throw std::invalid_argument("parse_net: unknown keyword " + kw);
        }
    }
    if (in_net) throw std::invalid_argument("parse_net: missing 'end'");
    return nets;
}

Net parse_net(const std::string& text)
{
    const auto nets = parse_nets(text);
    if (nets.size() != 1)
        throw std::invalid_argument("parse_net: expected exactly one net");
    return nets.front();
}

std::string format_tree(const RoutingTree& tree)
{
    std::ostringstream os;
    os << "tree\n";
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const auto& n = tree.node(static_cast<NodeId>(i));
        os << "node " << i << ' ' << n.p.x << ' ' << n.p.y << ' ' << n.parent << ' '
           << (n.is_sink ? 1 : 0);
        if (n.is_sink && n.sink_cap_f >= 0.0) os << ' ' << fmt_double(n.sink_cap_f);
        os << '\n';
    }
    os << "end\n";
    return os.str();
}

RoutingTree parse_tree(const std::string& text)
{
    const auto lines = token_lines(text);
    if (lines.empty() || lines.front()[0] != "tree" || lines.back()[0] != "end")
        throw std::invalid_argument("parse_tree: missing tree/end");

    std::optional<RoutingTree> tree;
    for (std::size_t li = 1; li + 1 < lines.size(); ++li) {
        const auto& t = lines[li];
        if (t[0] != "node" || t.size() < 6 || t.size() > 7)
            throw std::invalid_argument("parse_tree: bad node line");
        std::size_t id = 0;
        if (!parse_count(t[1], id)) throw std::invalid_argument("bad node id: " + t[1]);
        const Point p = to_point(t[2], t[3]);
        const std::int32_t parent = to_int32(t[4], "parent index");
        if (t[5] != "0" && t[5] != "1")
            throw std::invalid_argument("bad sink flag: " + t[5]);
        const bool is_sink = t[5] == "1";
        const double cap = t.size() == 7 ? to_cap(t[6]) : -1.0;
        if (id == 0) {
            if (parent != -1 || tree)
                throw std::invalid_argument("parse_tree: node 0 must be the root");
            tree.emplace(p);
        } else {
            if (!tree || id != tree->node_count() || parent < 0 ||
                static_cast<std::size_t>(parent) >= id)
                throw std::invalid_argument("parse_tree: ids must be topological");
            tree->add_child(static_cast<NodeId>(parent), p);
        }
        if (is_sink) tree->mark_sink(static_cast<NodeId>(id), cap);
    }
    if (!tree) throw std::invalid_argument("parse_tree: empty tree");
    return *tree;
}

std::string describe(const RoutingTree& tree)
{
    const FlatTree ft(tree);
    std::ostringstream os;
    os << "tree{nodes=" << tree.node_count() << ", sinks=" << tree.sinks().size()
       << ", length=" << total_length(ft)
       << ", sum_pl_sinks=" << sum_sink_path_lengths(ft)
       << ", sum_pl_nodes=" << sum_all_node_path_lengths(ft)
       << ", radius=" << radius(ft) << '}';
    return os.str();
}

}  // namespace cong93
