#include "atree/forest.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace cong93 {

namespace {

[[noreturn]] void throw_with_context(const char* what, Point offending,
                                     std::size_t sink_count)
{
    std::ostringstream os;
    os << what << " (offending point " << offending << ", net has "
       << sink_count << " sinks)";
    throw std::invalid_argument(os.str());
}

}  // namespace

Forest::Forest(Point source, const std::vector<Point>& sinks)
{
    if (source.x != 0 || source.y != 0)
        throw_with_context("Forest: source must be at the origin", source,
                           sinks.size());
    for (const Point s : sinks)
        if (s.x < 0 || s.y < 0)
            throw_with_context("Forest: sinks must lie in the first quadrant",
                               s, sinks.size());

    // Collapse duplicates by sorting sink indices by (point, index): in each
    // run of equal points the first occurrence leads.  Until the creation
    // pass below turns it into a node id, sink_nodes_[i] holds kFirst for a
    // first occurrence and the first occurrence's index for a repeat (which
    // the creation pass reaches after its first occurrence).
    constexpr int kFirst = -1;
    const std::size_t n = sinks.size();
    std::vector<int>& order = stack_;  // set_tree's scratch, idle until then
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        const Point pa = sinks[static_cast<std::size_t>(a)];
        const Point pb = sinks[static_cast<std::size_t>(b)];
        return pa < pb || (pa == pb && a < b);
    });
    sink_nodes_.assign(n, kFirst);
    for (std::size_t k = 1, lead = 0; k < n; ++k) {
        const auto i = static_cast<std::size_t>(order[k]);
        if (sinks[i] == sinks[static_cast<std::size_t>(order[lead])])
            sink_nodes_[i] = order[lead];
        else
            lead = k;
    }

    // The construction adds at most a few nodes per terminal (path corners
    // and edge splits); reserve for the common case.
    nodes_.reserve(4 * (n + 1));
    roots_.reserve(n + 1);
    tree_roots_.reserve(n + 1);
    index_.reserve(2 * (n + 1));

    source_node_ = new_node(source, 0);
    nodes_.back().terminal = true;
    roots_.push_back(source_node_);
    tree_roots_.push_back(source_node_);
    for (std::size_t i = 0; i < n; ++i) {
        const Point s = sinks[i];
        if (s == source) {
            sink_nodes_[i] = source_node_;
            continue;
        }
        if (const int first = sink_nodes_[i]; first != kFirst) {
            sink_nodes_[i] = sink_nodes_[static_cast<std::size_t>(first)];
            continue;  // duplicate sink collapsed
        }
        const int tree = static_cast<int>(tree_roots_.size());
        const int id = new_node(s, tree);
        nodes_.back().terminal = true;
        roots_.push_back(id);
        tree_roots_.push_back(id);
        sink_nodes_[i] = id;
    }
    for (const int rid : roots_)
        index_.add(Seg(nodes_[static_cast<std::size_t>(rid)].p), rid);
}

int Forest::new_node(Point p, int tree)
{
    NodeRec n;
    n.p = p;
    n.tree = tree;
    nodes_.push_back(n);
    return static_cast<int>(nodes_.size()) - 1;
}

int Forest::root_at(Point p) const
{
    for (const int rid : roots_)
        if (nodes_[static_cast<std::size_t>(rid)].p == p) return rid;
    return -1;
}

Forest::RootQuery Forest::analyze(int root_id) const
{
    const NodeRec& pn = node(root_id);
    const Point p = pn.p;
    RootQuery q;

    // df / mf via the region-pruned index sweep (Definition 7; edge interiors
    // count, own tree excluded).
    index_.nearest_dominated(
        p, [&](int owner) { return node(owner).tree != pn.tree; }, q.df,
        q.mf_west, q.mf_south);

    // dx / mx and dy / my (Definition 6).  The reference scan runs the
    // Definition 5 blocking test for *every* NW/SE root; since the answer is
    // the (distance, coordinate)-smallest unblocked candidate, sorting the
    // candidates by that key and taking the first unblocked one gives the
    // identical result with typically one or two O(log n) gate probes.
    std::vector<Candidate>& nw = nw_;
    std::vector<Candidate>& se = se_;
    nw.clear();
    se.clear();
    for (const int rid : roots_) {
        if (rid == root_id) continue;
        const NodeRec& rn = node(rid);
        if (rn.tree == pn.tree) continue;
        const Point r = rn.p;
        if (r.x < p.x && r.y > p.y)
            nw.push_back({{dist_x(p, r), r.y}, r});
        else if (r.x > p.x && r.y < p.y)
            se.push_back({{dist_y(p, r), r.x}, r});
    }
    std::sort(nw.begin(), nw.end());
    for (const auto& [key, r] : nw) {
        if (index_.hits_vertical_gate(r.x, p.y, r.y)) continue;
        q.dx = key.first;
        q.mx = r;
        break;
    }
    std::sort(se.begin(), se.end());
    for (const auto& [key, r] : se) {
        if (index_.hits_horizontal_gate(r.y, p.x, r.x)) continue;
        q.dy = key.first;
        q.my = r;
        break;
    }
    return q;
}

std::optional<std::pair<Length, int>> Forest::first_contact(const Leg& leg,
                                                            int own_tree) const
{
    const auto hit = index_.first_contact(
        leg, [&](int owner) { return node(owner).tree != own_tree; });
    if (!hit) return std::nullopt;
    // Arborescences are pairwise point-disjoint (they merge on first
    // contact), so the earliest contact point determines a unique tree and
    // any owner achieving the minimum t reports it.
    return std::make_pair(hit->first, node(hit->second).tree);
}

int Forest::materialize(Point p, int tree_id)
{
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].tree == tree_id && nodes_[i].p == p) return static_cast<int>(i);
    // Split the edge of tree_id whose interior contains p.  The union of
    // forest points is unchanged, so the segment index needs no update.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        NodeRec& child = nodes_[i];
        if (child.tree != tree_id || child.parent < 0) continue;
        NodeRec& par = nodes_[static_cast<std::size_t>(child.parent)];
        const Seg edge(par.p, child.p);
        if (!edge.contains(p)) continue;
        const int child_id = static_cast<int>(i);
        const int parent_id = child.parent;
        const int mid = new_node(p, tree_id);  // may invalidate child/par refs
        NodeRec& m = nodes_[static_cast<std::size_t>(mid)];
        m.parent = parent_id;
        m.children.push_back(child_id);
        nodes_[i].parent = mid;
        auto& pc = nodes_[static_cast<std::size_t>(parent_id)].children;
        *std::find(pc.begin(), pc.end(), child_id) = mid;
        return mid;
    }
    {
        std::ostringstream os;
        os << "Forest::materialize: point " << p << " not on tree " << tree_id
           << " (forest has " << nodes_.size() << " nodes)";
        throw std::logic_error(os.str());
    }
}

void Forest::set_tree(int node_id, int tree_id)
{
    std::vector<int>& stack = stack_;
    stack.assign(1, node_id);
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        nodes_[static_cast<std::size_t>(id)].tree = tree_id;
        for (const int c : nodes_[static_cast<std::size_t>(id)].children)
            stack.push_back(c);
    }
}

Forest::PathResult Forest::apply_path(int from_root, const std::vector<Point>& waypoints)
{
    return apply_path(from_root, waypoints.data(), waypoints.data() + waypoints.size());
}

Forest::PathResult Forest::apply_path(int from_root,
                                      std::initializer_list<Point> waypoints)
{
    return apply_path(from_root, waypoints.begin(), waypoints.end());
}

Forest::PathResult Forest::apply_path(int from_root, const Point* first,
                                      const Point* last)
{
    NodeRec& start = nodes_.at(static_cast<std::size_t>(from_root));
    if (start.parent != -1) {
        std::ostringstream os;
        os << "apply_path: node " << from_root << " at " << start.p
           << " is not a root (parent " << start.parent << ")";
        throw std::invalid_argument(os.str());
    }
    const int own_tree = start.tree;

    // Walk the legs, truncating at the first contact with another tree.
    std::vector<Point>& chain = chain_;  // corner / end points, in walking order
    chain.clear();
    Point cur = start.p;
    int merged_tree = -1;
    Length walked = 0;
    for (const Point* it = first; it != last; ++it) {
        const Point wp = *it;
        if (wp == cur) continue;
        const Leg leg = make_leg(cur, wp);
        if (const auto hit = first_contact(leg, own_tree)) {
            chain.push_back(leg.at(hit->first));
            walked += hit->first;
            merged_tree = hit->second;
            break;
        }
        chain.push_back(wp);
        walked += leg.len;
        cur = wp;
    }

    PathResult res;
    res.prev_root = from_root;
    res.prev_point = start.p;
    if (chain.empty()) {  // zero-length move
        res.end_node = from_root;
        res.end_point = start.p;
        res.new_root = from_root;
        return res;
    }
    res.end_point = chain.back();
    total_length_ += walked;

    // Create the chain of nodes from the far end back toward from_root.
    int far_node;
    const int final_tree = merged_tree >= 0 ? merged_tree : own_tree;
    if (merged_tree >= 0) {
        far_node = materialize(chain.back(), merged_tree);
    } else {
        far_node = new_node(chain.back(), own_tree);
    }
    int parent = far_node;
    for (std::size_t i = chain.size() - 1; i-- > 0;) {
        const int mid = new_node(chain[i], final_tree);
        nodes_[static_cast<std::size_t>(mid)].parent = parent;
        nodes_[static_cast<std::size_t>(parent)].children.push_back(mid);
        res.added_segs.push_back(Seg(chain[i], chain[i + 1]));
        index_.add(res.added_segs.back(), mid);
        parent = mid;
    }
    nodes_[static_cast<std::size_t>(from_root)].parent = parent;
    nodes_[static_cast<std::size_t>(parent)].children.push_back(from_root);
    res.added_segs.push_back(Seg(res.prev_point, chain.front()));
    index_.add(res.added_segs.back(), from_root);

    if (merged_tree >= 0) {
        set_tree(from_root, merged_tree);
        tree_roots_[static_cast<std::size_t>(own_tree)] = -1;
        roots_.erase(std::find(roots_.begin(), roots_.end(), from_root));
        res.merged = true;
        res.end_node = far_node;
        res.new_root = tree_roots_[static_cast<std::size_t>(merged_tree)];
    } else {
        // The far end is the new root of from_root's tree.
        nodes_[static_cast<std::size_t>(far_node)].parent = -1;
        tree_roots_[static_cast<std::size_t>(own_tree)] = far_node;
        *std::find(roots_.begin(), roots_.end(), from_root) = far_node;
        res.end_node = far_node;
        res.new_root = far_node;
    }
    return res;
}

Length Forest::nearest_dominated_dist(Point p, int exclude_tree1,
                                      int exclude_tree2) const
{
    Length best = kInfLen;
    std::optional<Point> west, south;
    index_.nearest_dominated(
        p,
        [&](int owner) {
            const int t = node(owner).tree;
            return t != exclude_tree1 && t != exclude_tree2;
        },
        best, west, south);
    return best;
}

bool Forest::covers(Point p) const { return index_.covers(p); }

}  // namespace cong93
