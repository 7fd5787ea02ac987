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

void Forest::reset(Point source, const std::vector<Point>& sinks)
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
    // and edge splits); reserve for the common case.  Capacity from an
    // earlier construction is kept.
    nodes_.clear();
    roots_.clear();
    root_points_.clear();
    tree_roots_.clear();
    index_.clear();
    total_length_ = 0;
    nodes_.reserve(4 * (n + 1));
    roots_.reserve(n + 1);
    root_points_.reserve(n + 1);
    tree_roots_.reserve(n + 1);
    index_.reserve(2 * (n + 1));

    source_node_ = new_node(source, 0);
    nodes_.back().terminal = true;
    roots_.push_back(source_node_);
    root_points_.push_back(source);
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
        root_points_.push_back(s);
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

void Forest::append_child(int parent, int child)
{
    NodeRec& par = nodes_[static_cast<std::size_t>(parent)];
    if (par.last_child < 0)
        par.first_child = child;
    else
        nodes_[static_cast<std::size_t>(par.last_child)].next_sibling = child;
    par.last_child = child;
}

std::size_t Forest::capacity_bytes() const
{
    return nodes_.capacity() * sizeof(NodeRec) +
           (roots_.capacity() + tree_roots_.capacity() + sink_nodes_.capacity() +
            stack_.capacity()) * sizeof(int) +
           root_points_.capacity() * sizeof(Point) +
           index_.capacity_bytes();
}

int Forest::root_at(Point p) const
{
    for (std::size_t i = 0; i < root_points_.size(); ++i)
        if (root_points_[i] == p) return roots_[i];
    return -1;
}

Forest::RootQuery Forest::analyze(int root_id, MxMyScratch& scratch) const
{
    RootQuery q;
    analyze_df(root_id, q);
    analyze_mxmy(root_id, q, scratch);
    return q;
}

Forest::RootQuery Forest::analyze(int root_id) const
{
    MxMyScratch scratch;
    return analyze(root_id, scratch);
}

void Forest::analyze_df(int root_id, RootQuery& q) const
{
    // df / mf via the region-pruned index sweep (Definition 7; edge interiors
    // count, own tree excluded).
    const NodeRec& pn = node(root_id);
    q.df = kInfLen;
    q.mf_west.reset();
    q.mf_south.reset();
    index_.nearest_dominated(
        pn.p, [&](int owner) { return tree_of(owner) != pn.tree; }, q.df,
        q.mf_west, q.mf_south);
}

void Forest::analyze_mxmy(int root_id, RootQuery& q, MxMyScratch& scratch) const
{
    // dx / mx and dy / my (Definition 6).  The reference scan runs the
    // Definition 5 blocking test for *every* NW/SE root; the answer is the
    // (distance, coordinate)-smallest unblocked candidate.  One pass over the
    // root points collects both candidate sets; each set is then probed
    // smallest key first, dropping blocked candidates, so a query typically
    // pays one or two gate probes.  Root points are pairwise distinct, so
    // keys are unique and the order is strict.  A tree has one root, so
    // every root but root_id is of another tree, and root_id itself is in
    // neither region.  The pass is branch-free: each point is written to
    // both buffers and kept where it belongs.
    const Point p = node(root_id).p;
    const std::size_t n = root_points_.size();
    scratch.nw.resize(n);
    scratch.se.resize(n);
    std::size_t nw = 0, se = 0;
    for (const Point r : root_points_) {
        scratch.nw[nw] = r;
        nw += static_cast<std::size_t>((r.x < p.x) & (r.y > p.y));
        scratch.se[se] = r;
        se += static_cast<std::size_t>((r.x > p.x) & (r.y < p.y));
    }
    scratch.nw.resize(nw);
    scratch.se.resize(se);
    // Smallest unblocked candidate under `less`, or nullopt; consumes `cands`.
    const auto pick = [](std::vector<Point>& cands, auto less,
                         auto blocked) -> std::optional<Point> {
        while (!cands.empty()) {
            const auto it = std::min_element(cands.begin(), cands.end(), less);
            if (!blocked(*it)) return *it;
            *it = cands.back();
            cands.pop_back();
        }
        return std::nullopt;
    };
    // NW key (dist_x, y): larger x first, then smaller y.
    q.mx = pick(
        scratch.nw,
        [](Point a, Point b) { return a.x > b.x || (a.x == b.x && a.y < b.y); },
        [&](Point r) { return nw_blocked(p, r); });
    q.dx = q.mx ? dist_x(p, *q.mx) : kInfLen;
    // SE key (dist_y, x): larger y first, then smaller x.
    q.my = pick(
        scratch.se,
        [](Point a, Point b) { return a.y > b.y || (a.y == b.y && a.x < b.x); },
        [&](Point r) { return se_blocked(p, r); });
    q.dy = q.my ? dist_y(p, *q.my) : kInfLen;
}

std::optional<std::pair<Length, int>> Forest::first_contact(const Leg& leg,
                                                            int own_tree) const
{
    const auto hit = index_.first_contact(
        leg, [&](int owner) { return tree_of(owner) != own_tree; });
    if (!hit) return std::nullopt;
    // Arborescences are pairwise point-disjoint (they merge on first
    // contact), so the earliest contact point determines a unique tree and
    // any owner achieving the minimum t reports it.
    return std::make_pair(hit->first, node(hit->second).tree);
}

int Forest::materialize(Point p, int owner)
{
    // The owner's interval was its parent edge (or its isolated point) when
    // indexed; later splits only cut that straight run into a chain of
    // edges upward from the owner, so walking up the chain finds p as a
    // node or inside exactly one edge.  A tree's edges are interior-disjoint
    // and its points pairwise distinct, so this is the node a scan for p
    // over the tree would find.
    for (int id = owner;;) {
        const NodeRec& n = nodes_[static_cast<std::size_t>(id)];
        if (n.p == p) return id;
        if (n.parent < 0) {
            std::ostringstream os;
            os << "Forest::materialize: point " << p << " not on the run of node "
               << owner << " (forest has " << nodes_.size() << " nodes)";
            throw std::logic_error(os.str());
        }
        const Point up = nodes_[static_cast<std::size_t>(n.parent)].p;
        if (up != p && Seg(n.p, up).contains(p)) return split_edge(id, p);
        id = n.parent;
    }
}

int Forest::split_edge(int child_id, Point p)
{
    // The union of forest points is unchanged, so the segment index needs no
    // update.
    const auto child = static_cast<std::size_t>(child_id);
    const int parent_id = nodes_[child].parent;
    const int mid = new_node(p, nodes_[child].tree);  // may invalidate refs
    // mid takes child's place in the parent's child list.
    NodeRec& m = nodes_[static_cast<std::size_t>(mid)];
    NodeRec& c = nodes_[child];
    m.parent = parent_id;
    m.first_child = m.last_child = child_id;
    m.next_sibling = c.next_sibling;
    c.parent = mid;
    c.next_sibling = -1;
    NodeRec& pr = nodes_[static_cast<std::size_t>(parent_id)];
    if (pr.first_child == child_id) {
        pr.first_child = mid;
    } else {
        int prev = pr.first_child;
        while (nodes_[static_cast<std::size_t>(prev)].next_sibling != child_id)
            prev = nodes_[static_cast<std::size_t>(prev)].next_sibling;
        nodes_[static_cast<std::size_t>(prev)].next_sibling = mid;
    }
    if (pr.last_child == child_id) pr.last_child = mid;
    return mid;
}

void Forest::set_tree(int node_id, int tree_id)
{
    std::vector<int>& stack = stack_;
    stack.assign(1, node_id);
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        nodes_[static_cast<std::size_t>(id)].tree = tree_id;
        for (const int c : children(id)) stack.push_back(c);
    }
}

Forest::PathResult Forest::apply_path(int from_root,
                                      std::initializer_list<Point> waypoints)
{
    if (waypoints.size() > 2) {
        std::ostringstream os;
        os << "apply_path: " << waypoints.size()
           << " waypoints (a move has at most two legs)";
        throw std::invalid_argument(os.str());
    }
    NodeRec& start = nodes_.at(static_cast<std::size_t>(from_root));
    if (start.parent != -1) {
        std::ostringstream os;
        os << "apply_path: node " << from_root << " at " << start.p
           << " is not a root (parent " << start.parent << ")";
        throw std::invalid_argument(os.str());
    }
    const int own_tree = start.tree;

    // Walk the legs, truncating at the first contact with another tree.
    std::array<Point, 2> chain{};  // corner / end points, in walking order
    std::size_t links = 0;
    Point cur = start.p;
    int merged_tree = -1;
    int contact_owner = -1;  ///< index owner of the contact point
    Length walked = 0;
    for (const Point wp : waypoints) {
        if (wp == cur) continue;
        const Leg leg = make_leg(cur, wp);
        if (const auto hit = index_.first_contact(leg, [&](int owner) {
                return tree_of(owner) != own_tree;
            })) {
            chain[links++] = leg.at(hit->first);
            walked += hit->first;
            contact_owner = hit->second;
            merged_tree = tree_of(contact_owner);
            break;
        }
        chain[links++] = wp;
        walked += leg.len;
        cur = wp;
    }

    PathResult res;
    res.prev_root = from_root;
    res.prev_point = start.p;
    if (links == 0) {  // zero-length move
        res.end_node = from_root;
        res.end_point = start.p;
        res.new_root = from_root;
        return res;
    }
    res.end_point = chain[links - 1];
    total_length_ += walked;

    // Create the chain of nodes from the far end back toward from_root.
    int far_node;
    const int final_tree = merged_tree >= 0 ? merged_tree : own_tree;
    if (merged_tree >= 0) {
        far_node = materialize(res.end_point, contact_owner);
    } else {
        far_node = new_node(res.end_point, own_tree);
    }
    int parent = far_node;
    for (std::size_t i = links - 1; i-- > 0;) {
        const int mid = new_node(chain[i], final_tree);
        nodes_[static_cast<std::size_t>(mid)].parent = parent;
        append_child(parent, mid);
        res.added_segs.push_back(Seg(chain[i], chain[i + 1]));
        index_.add(res.added_segs.back(), mid);
        parent = mid;
    }
    nodes_[static_cast<std::size_t>(from_root)].parent = parent;
    append_child(parent, from_root);
    res.added_segs.push_back(Seg(res.prev_point, chain.front()));
    index_.add(res.added_segs.back(), from_root);

    if (merged_tree >= 0) {
        set_tree(from_root, merged_tree);
        tree_roots_[static_cast<std::size_t>(own_tree)] = -1;
        const auto at = std::find(roots_.begin(), roots_.end(), from_root);
        root_points_.erase(root_points_.begin() + (at - roots_.begin()));
        roots_.erase(at);
        res.merged = true;
        res.end_node = far_node;
        res.new_root = tree_roots_[static_cast<std::size_t>(merged_tree)];
    } else {
        // The far end is the new root of from_root's tree.
        nodes_[static_cast<std::size_t>(far_node)].parent = -1;
        tree_roots_[static_cast<std::size_t>(own_tree)] = far_node;
        const auto at = std::find(roots_.begin(), roots_.end(), from_root);
        root_points_[static_cast<std::size_t>(at - roots_.begin())] = res.end_point;
        *at = far_node;
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
            const int t = tree_of(owner);
            return t != exclude_tree1 && t != exclude_tree2;
        },
        best, west, south);
    return best;
}

bool Forest::covers(Point p) const { return index_.covers(p); }

}  // namespace cong93
