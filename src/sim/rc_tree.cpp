#include "sim/rc_tree.h"

#include <algorithm>
#include <stdexcept>

namespace cong93 {

RcTree::RcTree(std::vector<RcNode> nodes, std::vector<int> sink_nodes)
    : nodes_(std::move(nodes)), sink_nodes_(std::move(sink_nodes))
{
    if (nodes_.empty()) throw std::invalid_argument("RcTree: empty");
    if (nodes_[0].parent != -1) throw std::invalid_argument("RcTree: node 0 not root");
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        if (nodes_[i].parent < 0 || static_cast<std::size_t>(nodes_[i].parent) >= i)
            throw std::invalid_argument("RcTree: parents must precede children");
        if (nodes_[i].r_ohm <= 0.0)
            throw std::invalid_argument("RcTree: non-positive resistance");
    }
    for (const int s : sink_nodes_)
        if (s < 0 || static_cast<std::size_t>(s) >= nodes_.size())
            throw std::invalid_argument("RcTree: sink node out of range");
    parent_.resize(nodes_.size());
    r_.resize(nodes_.size());
    c_.resize(nodes_.size());
    l_.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        parent_[i] = nodes_[i].parent;
        r_[i] = nodes_[i].r_ohm;
        c_[i] = nodes_[i].c_f;
        l_[i] = nodes_[i].l_h;
        if (nodes_[i].l_h > 0.0) has_inductance_ = true;
    }
}

namespace {

/// Appends a chain of pi-sections modelling a wire of total resistance r,
/// capacitance c and inductance l from `from`; returns the far node index.
int append_wire(std::vector<RcTree::RcNode>& nodes, int from, double r, double c,
                double l, int sections)
{
    const int k = std::max(1, sections);
    const double rs = r / k;
    const double cs = c / k;
    const double ls = l / k;
    int cur = from;
    for (int i = 0; i < k; ++i) {
        nodes[static_cast<std::size_t>(cur)].c_f += cs / 2.0;
        RcTree::RcNode n;
        n.parent = cur;
        n.r_ohm = rs;
        n.c_f = cs / 2.0;
        n.l_h = ls;
        nodes.push_back(n);
        cur = static_cast<int>(nodes.size()) - 1;
    }
    return cur;
}

}  // namespace

RcTree RcTree::from_flat_tree(const FlatTree& ft, const Technology& tech,
                              int sections_per_edge, bool with_inductance)
{
    std::vector<RcNode> nodes(1);
    nodes[0].parent = -1;
    nodes[0].r_ohm = tech.driver_resistance_ohm;

    // Flat order is preorder, so every parent's RC end node exists before
    // its children are appended -- the same visit order (and therefore the
    // same node numbering and arithmetic) as the seed pointer walk.
    const std::int32_t* parent = ft.parent().data();
    const Length* el = ft.edge_length().data();
    const std::uint8_t* sk = ft.is_sink().data();
    const double* sc = ft.sink_cap().data();
    std::vector<int> rc_of(ft.size(), -1);
    if (!ft.empty()) rc_of[0] = 0;
    for (std::size_t i = 1; i < ft.size(); ++i) {
        const Length l = el[i];
        const int from = rc_of[static_cast<std::size_t>(parent[i])];
        const int sections = static_cast<int>(std::min<Length>(l, sections_per_edge));
        const int end = append_wire(
            nodes, from, tech.r_grid() * static_cast<double>(l),
            tech.c_grid() * static_cast<double>(l),
            with_inductance ? tech.l_grid() * static_cast<double>(l) : 0.0, sections);
        rc_of[i] = end;
        if (sk[i])
            nodes[static_cast<std::size_t>(end)].c_f +=
                sc[i] >= 0.0 ? sc[i] : tech.sink_load_f;
    }

    std::vector<int> sinks;
    sinks.reserve(ft.sinks().size());
    for (const std::int32_t s : ft.sinks())
        sinks.push_back(rc_of[static_cast<std::size_t>(s)]);
    return RcTree(std::move(nodes), std::move(sinks));
}

RcTree RcTree::from_routing_tree(const RoutingTree& tree, const Technology& tech,
                                 int sections_per_edge, bool with_inductance)
{
    return from_flat_tree(FlatTree(tree), tech, sections_per_edge, with_inductance);
}

RcTree RcTree::from_wiresized_flat(const WiresizeContext& ctx,
                                   const Assignment& assignment,
                                   int sections_per_edge, bool with_inductance)
{
    if (assignment.size() != ctx.segment_count())
        throw std::invalid_argument("RcTree: assignment size mismatch");
    const FlatTree& ft = ctx.flat();
    const Technology& tech = ctx.tech();
    const WidthSet& widths = ctx.widths();

    std::vector<RcNode> nodes(1);
    nodes[0].parent = -1;
    nodes[0].r_ohm = tech.driver_resistance_ohm;

    // One wire per segment, in segment order (parents first); segment tails
    // are tracked by flat node index.
    std::vector<int> rc_of_tail(ctx.segment_count(), -1);
    std::vector<int> rc_of_flat(ft.size(), -1);
    if (!ft.empty()) rc_of_flat[0] = 0;

    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        const std::int32_t p = ctx.seg_parent()[i];
        const int from =
            p == kNoSegment ? 0 : rc_of_tail[static_cast<std::size_t>(p)];
        const double w = widths[assignment[i]];
        const double l = ctx.seg_length()[i];
        const int sections = static_cast<int>(
            std::min<Length>(static_cast<Length>(l), sections_per_edge));
        // Wire inductance is taken width-independent (loop inductance varies
        // only logarithmically with conductor width).
        const int end = append_wire(nodes, from, tech.r_grid() * l / w,
                                    tech.c_grid() * l * w,
                                    with_inductance ? tech.l_grid() * l : 0.0,
                                    sections);
        rc_of_tail[i] = end;
        rc_of_flat[static_cast<std::size_t>(ctx.seg_tail_flat()[i])] = end;
        if (ctx.tail_is_sink()[i])
            nodes[static_cast<std::size_t>(end)].c_f += ctx.tail_cap(i);
    }

    std::vector<int> sinks;
    sinks.reserve(ft.sinks().size());
    for (const std::int32_t s : ft.sinks()) {
        const int idx = rc_of_flat[static_cast<std::size_t>(s)];
        if (idx < 0) throw std::logic_error("RcTree: sink is not a segment tail");
        sinks.push_back(idx);
    }
    return RcTree(std::move(nodes), std::move(sinks));
}

double RcTree::total_capacitance() const
{
    double c = 0.0;
    for (const RcNode& n : nodes_) c += n.c_f;
    return c;
}

}  // namespace cong93
