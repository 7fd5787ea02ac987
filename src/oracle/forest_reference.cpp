// Seed full-scan geometric queries over the A-tree forest, preserved as the
// equivalence oracles for the SegIndex-served production queries (see
// tests/test_forest_index.cpp).
// Built only into the cong_oracles target (CONG93_BUILD_ORACLES=ON).
#include "atree/forest.h"

#include <algorithm>

namespace cong93 {

namespace {

/// Visits every maximal piece of forest geometry as a Seg: one segment per
/// (node, parent) edge plus a degenerate segment per isolated node.
template <typename Fn>
void for_each_forest_seg(const std::vector<Forest::NodeRec>& nodes, Fn&& fn)
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto& n = nodes[i];
        if (n.parent >= 0)
            fn(Seg(n.p, nodes[static_cast<std::size_t>(n.parent)].p), n.tree);
        else if (n.first_child < 0)
            fn(Seg(n.p), n.tree);
    }
}

}  // namespace

Forest::RootQuery Forest::analyze_reference(int root_id) const
{
    const NodeRec& pn = node(root_id);
    const Point p = pn.p;
    RootQuery q;

    // df / mf: nearest dominated point of any *other* arborescence
    // (Definition 7).  Edge interiors count.
    for_each_forest_seg(nodes_, [&](const Seg& seg, int tree) {
        if (tree == pn.tree) return;
        const auto cand = seg.nearest_dominated(p);
        if (!cand) return;
        const Length d = dist(p, *cand);
        if (d < q.df) {
            q.df = d;
            q.mf_west = q.mf_south = *cand;
        } else if (d == q.df) {
            if (cand->x < q.mf_west->x ||
                (cand->x == q.mf_west->x && cand->y < q.mf_west->y))
                q.mf_west = *cand;
            if (cand->y < q.mf_south->y ||
                (cand->y == q.mf_south->y && cand->x < q.mf_south->x))
                q.mf_south = *cand;
        }
    });

    // dx / mx: unblocked roots strictly northwest of p (Definition 6).
    for (const int rid : roots_) {
        if (rid == root_id) continue;
        const NodeRec& rn = node(rid);
        if (rn.tree == pn.tree) continue;
        const Point r = rn.p;
        if (r.x < p.x && r.y > p.y) {
            // q blocked from p: some forest point at column r.x with
            // y in [p.y, r.y) (Definition 5).
            bool blocked = false;
            for_each_forest_seg(nodes_, [&](const Seg& seg, int) {
                blocked = blocked || seg.hits_vertical_gate(r.x, p.y, r.y);
            });
            if (!blocked) {
                const Length d = dist_x(p, r);
                if (d < q.dx || (d == q.dx && q.mx && r.y < q.mx->y)) {
                    q.dx = d;
                    q.mx = r;
                }
            }
        } else if (r.x > p.x && r.y < p.y) {
            // my: unblocked roots strictly southeast of p.
            bool blocked = false;
            for_each_forest_seg(nodes_, [&](const Seg& seg, int) {
                blocked = blocked || seg.hits_horizontal_gate(r.y, p.x, r.x);
            });
            if (!blocked) {
                const Length d = dist_y(p, r);
                if (d < q.dy || (d == q.dy && q.my && r.x < q.my->x)) {
                    q.dy = d;
                    q.my = r;
                }
            }
        }
    }
    return q;
}

std::optional<std::pair<Length, int>> Forest::first_contact_reference(
    const Leg& leg, int own_tree) const
{
    std::optional<std::pair<Length, int>> best;
    for_each_forest_seg(nodes_, [&](const Seg& seg, int tree) {
        if (tree == own_tree) return;
        const auto t = first_hit(leg, seg);
        if (t && (!best || *t < best->first)) best = {*t, tree};
    });
    return best;
}

Length Forest::nearest_dominated_dist_reference(Point p, int exclude_tree1,
                                                int exclude_tree2) const
{
    Length best = kInfLen;
    for_each_forest_seg(nodes_, [&](const Seg& seg, int tree) {
        if (tree == exclude_tree1 || tree == exclude_tree2) return;
        if (const auto cand = seg.nearest_dominated(p))
            best = std::min(best, dist(p, *cand));
    });
    return best;
}

bool Forest::covers_reference(Point p) const
{
    bool found = false;
    for_each_forest_seg(nodes_, [&](const Seg& seg, int) {
        found = found || seg.contains(p);
    });
    return found;
}

}  // namespace cong93
