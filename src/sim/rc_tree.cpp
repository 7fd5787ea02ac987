#include "sim/rc_tree.h"

#include <algorithm>
#include <stdexcept>

namespace cong93 {

RcTree::RcTree(std::vector<RcNode> nodes, std::vector<int> sink_nodes)
    : parent_(nodes.size()), r_(nodes.size()), c_(nodes.size()), l_(nodes.size()),
      sink_nodes_(std::move(sink_nodes))
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        parent_[i] = nodes[i].parent;
        r_[i] = nodes[i].r_ohm;
        c_[i] = nodes[i].c_f;
        l_[i] = nodes[i].l_h;
    }
    check();
}

RcTree::RcTree(std::size_t n, double driver_ohm)
    : parent_(n, -1), r_(n, 0.0), c_(n, 0.0), l_(n, 0.0)
{
    r_[0] = driver_ohm;
}

void RcTree::check()
{
    const std::size_t n = parent_.size();
    if (n == 0) throw std::invalid_argument("RcTree: empty");
    if (parent_[0] != -1) throw std::invalid_argument("RcTree: node 0 not root");
    for (std::size_t i = 1; i < n; ++i) {
        if (parent_[i] < 0 || static_cast<std::size_t>(parent_[i]) >= i)
            throw std::invalid_argument("RcTree: parents must precede children");
        if (r_[i] <= 0.0)
            throw std::invalid_argument("RcTree: non-positive resistance");
    }
    for (const int s : sink_nodes_)
        if (s < 0 || static_cast<std::size_t>(s) >= n)
            throw std::invalid_argument("RcTree: sink node out of range");
    has_inductance_ =
        std::any_of(l_.begin(), l_.end(), [](double l) { return l > 0.0; });
}

std::vector<RcTree::RcNode> RcTree::nodes() const
{
    std::vector<RcNode> out(size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = node(i);
    return out;
}

int RcTree::append_sections(std::size_t& next, int from, double r, double c,
                            double l, int sections)
{
    const double rs = r / sections;
    const double cs = c / sections;
    const double ls = l / sections;
    int cur = from;
    for (int i = 0; i < sections; ++i) {
        c_[static_cast<std::size_t>(cur)] += cs / 2.0;
        parent_[next] = cur;
        r_[next] = rs;
        c_[next] = cs / 2.0;
        l_[next] = ls;
        cur = static_cast<int>(next++);
    }
    return cur;
}

namespace {

/// Sections append_sections lays for a wire of length l.
int sections_of(Length l, int sections_per_edge)
{
    return std::max(1, static_cast<int>(std::min<Length>(l, sections_per_edge)));
}

}  // namespace

RcTree RcTree::from_flat_tree(const FlatTree& ft, const Technology& tech,
                              int sections_per_edge, bool with_inductance)
{
    const std::int32_t* parent = ft.parent().data();
    const Length* el = ft.edge_length().data();
    const std::uint8_t* sk = ft.is_sink().data();
    const double* sc = ft.sink_cap().data();
    std::size_t n = 1;
    for (std::size_t i = 1; i < ft.size(); ++i)
        n += static_cast<std::size_t>(sections_of(el[i], sections_per_edge));
    RcTree rc(n, tech.driver_resistance_ohm);

    // Flat order is preorder, so every parent's RC end node exists before
    // its children are appended -- the same visit order (and therefore the
    // same node numbering and arithmetic) as the seed pointer walk.
    std::vector<int> rc_of(ft.size(), -1);
    if (!ft.empty()) rc_of[0] = 0;
    std::size_t next = 1;
    for (std::size_t i = 1; i < ft.size(); ++i) {
        const Length l = el[i];
        const int from = rc_of[static_cast<std::size_t>(parent[i])];
        const int end = rc.append_sections(
            next, from, tech.r_grid() * static_cast<double>(l),
            tech.c_grid() * static_cast<double>(l),
            with_inductance ? tech.l_grid() * static_cast<double>(l) : 0.0,
            sections_of(l, sections_per_edge));
        rc_of[i] = end;
        if (sk[i])
            rc.c_[static_cast<std::size_t>(end)] +=
                sc[i] >= 0.0 ? sc[i] : tech.sink_load_f;
    }

    rc.sink_nodes_.reserve(ft.sinks().size());
    for (const std::int32_t s : ft.sinks())
        rc.sink_nodes_.push_back(rc_of[static_cast<std::size_t>(s)]);
    rc.check();
    return rc;
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
    const auto sections = [&](std::size_t i) {
        return sections_of(static_cast<Length>(ctx.seg_length()[i]),
                           sections_per_edge);
    };
    std::size_t n = 1;
    for (std::size_t i = 0; i < ctx.segment_count(); ++i)
        n += static_cast<std::size_t>(sections(i));
    RcTree rc(n, tech.driver_resistance_ohm);

    // One wire per segment, in segment order (parents first); segment tails
    // are tracked by flat node index.
    std::vector<int> rc_of_tail(ctx.segment_count(), -1);
    std::vector<int> rc_of_flat(ft.size(), -1);
    if (!ft.empty()) rc_of_flat[0] = 0;

    std::size_t next = 1;
    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        const std::int32_t p = ctx.seg_parent()[i];
        const int from =
            p == kNoSegment ? 0 : rc_of_tail[static_cast<std::size_t>(p)];
        const double w = widths[assignment[i]];
        const double l = ctx.seg_length()[i];
        // Wire inductance is taken width-independent (loop inductance varies
        // only logarithmically with conductor width).
        const int end = rc.append_sections(
            next, from, tech.r_grid() * l / w, tech.c_grid() * l * w,
            with_inductance ? tech.l_grid() * l : 0.0, sections(i));
        rc_of_tail[i] = end;
        rc_of_flat[static_cast<std::size_t>(ctx.seg_tail_flat()[i])] = end;
        if (ctx.tail_is_sink()[i])
            rc.c_[static_cast<std::size_t>(end)] += ctx.tail_cap(i);
    }

    rc.sink_nodes_.reserve(ft.sinks().size());
    for (const std::int32_t s : ft.sinks()) {
        const int idx = rc_of_flat[static_cast<std::size_t>(s)];
        if (idx < 0) throw std::logic_error("RcTree: sink is not a segment tail");
        rc.sink_nodes_.push_back(idx);
    }
    rc.check();
    return rc;
}

double RcTree::total_capacitance() const
{
    double c = 0.0;
    for (const double ci : c_) c += ci;
    return c;
}

}  // namespace cong93
