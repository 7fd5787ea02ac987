#include "rtree/validate.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cong93 {

std::vector<std::string> validate_structure(const RoutingTree& tree)
{
    std::vector<std::string> errors;
    const auto err = [&errors](const std::string& msg) { errors.push_back(msg); };

    std::size_t reachable = 0;
    for (const NodeId id : tree.preorder()) ++reachable, (void)id;
    if (reachable != tree.node_count()) err("not all nodes reachable from the root");

    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        const auto& n = tree.node(id);
        if (id == tree.root()) {
            if (n.parent != kNoNode) err("root has a parent");
            if (n.pl != 0) err("root path length nonzero");
            continue;
        }
        if (n.parent == kNoNode) {
            err("non-root node without parent");
            continue;
        }
        const auto& p = tree.node(n.parent);
        if (p.p.x != n.p.x && p.p.y != n.p.y) {
            std::ostringstream os;
            os << "edge not axis-parallel at node " << id;
            err(os.str());
        }
        if (p.p == n.p) err("zero-length edge");
        if (n.pl != p.pl + dist(p.p, n.p)) err("cached path length inconsistent");
        if (std::count(p.children.begin(), p.children.end(), id) != 1)
            err("parent/child link inconsistent");
    }
    return errors;
}

bool spans_net(const RoutingTree& tree, const Net& net)
{
    if (tree.point(tree.root()) != net.source) return false;
    for (const Point s : net.sinks) {
        bool found = false;
        for (const NodeId id : tree.sinks()) {
            if (tree.point(id) == s) {
                found = true;
                break;
            }
        }
        if (!found) return false;
    }
    return true;
}

bool is_atree(const RoutingTree& tree)
{
    const Point src = tree.point(tree.root());
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        if (tree.path_length(id) != dist(src, tree.point(id))) return false;
    }
    return true;
}

namespace {

bool coord_in_range(Point p)
{
    return p.x >= -kMaxRoutableCoord && p.x <= kMaxRoutableCoord &&
           p.y >= -kMaxRoutableCoord && p.y <= kMaxRoutableCoord;
}

std::string describe(Point p)
{
    std::ostringstream os;
    os << p;
    return os.str();
}

}  // namespace

NetValidation validate_net(const Net& net)
{
    NetValidation v;
    if (net.sinks.empty()) {
        v.ok = false;
        v.error = "net has no sinks";
        return v;
    }
    if (!coord_in_range(net.source)) {
        v.ok = false;
        v.error = "source " + describe(net.source) +
                  " exceeds the routable coordinate range";
        return v;
    }

    // Duplicates by one sort over (point, index) of the sinks off the
    // source: in a run of equal points only the first index is kept.  A
    // second sort puts the flags back in index order.
    struct Key {
        Point p;
        std::size_t index;
        bool dup;
    };
    std::vector<Key> keys;
    keys.reserve(net.sinks.size());
    for (std::size_t i = 0; i < net.sinks.size(); ++i)
        if (net.sinks[i] != net.source) keys.push_back(Key{net.sinks[i], i, false});
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
        return a.p < b.p || (a.p == b.p && a.index < b.index);
    });
    for (std::size_t k = 1; k < keys.size(); ++k)
        keys[k].dup = keys[k].p == keys[k - 1].p;
    std::sort(keys.begin(), keys.end(),
              [](const Key& a, const Key& b) { return a.index < b.index; });

    v.net.source = net.source;
    v.net.sinks.reserve(keys.size());
    v.net.sink_caps.reserve(keys.size());
    std::size_t k = 0;
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        const Point s = net.sinks[i];
        if (!coord_in_range(s)) {
            v.ok = false;
            v.error = "sink " + std::to_string(i) + " at " + describe(s) +
                      " exceeds the routable coordinate range";
            return v;
        }
        if (s == net.source) {
            v.notes.push_back("dropped sink " + std::to_string(i) +
                              " coincident with the source");
            continue;
        }
        if (keys[k++].dup) {
            v.notes.push_back("collapsed duplicate sink " + std::to_string(i) +
                              " at " + describe(s));
            continue;
        }
        v.net.sinks.push_back(s);
        v.net.sink_caps.push_back(net.sink_cap(i));
    }
    if (v.net.sinks.empty()) {
        v.ok = false;
        v.error = "zero-length net: every sink coincides with the source";
        return v;
    }
    // All-default load caps collapse back to the canonical empty vector so a
    // canonicalized net serializes exactly like an untouched one.
    bool any_cap = false;
    for (const double c : v.net.sink_caps) any_cap = any_cap || c >= 0.0;
    if (!any_cap) v.net.sink_caps.clear();
    return v;
}

void require_valid(const RoutingTree& tree, const Net& net)
{
    const auto errors = validate_structure(tree);
    if (!errors.empty()) {
        std::ostringstream os;
        os << "invalid routing tree:";
        for (const auto& e : errors) os << ' ' << e << ';';
        throw std::logic_error(os.str());
    }
    if (!spans_net(tree, net)) throw std::logic_error("tree does not span the net");
}

}  // namespace cong93
