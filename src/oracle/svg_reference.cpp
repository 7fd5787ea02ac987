// Seed pointer-walk SVG renderer, preserved as the byte-identity oracle for
// the flat renderer in rtree/svg.cpp.  Built only into the cong_oracles
// target (CONG93_BUILD_ORACLES=ON).
#include "oracle/svg_reference.h"

#include <algorithm>
#include <sstream>

namespace cong93 {

namespace {

struct Mapper {
    double scale = 1.0;
    double margin = 20.0;
    Coord min_x = 0, min_y = 0, max_x = 0, max_y = 0;

    Mapper(const RoutingTree& tree, const SvgOptions& opt)
    {
        min_x = max_x = tree.point(tree.root()).x;
        min_y = max_y = tree.point(tree.root()).y;
        for (std::size_t i = 0; i < tree.node_count(); ++i) {
            const Point p = tree.point(static_cast<NodeId>(i));
            min_x = std::min(min_x, p.x);
            max_x = std::max(max_x, p.x);
            min_y = std::min(min_y, p.y);
            max_y = std::max(max_y, p.y);
        }
        const double span = static_cast<double>(
            std::max<Length>({dist_x({min_x, 0}, {max_x, 0}),
                              dist_y({0, min_y}, {0, max_y}), 1}));
        scale = (opt.pixels - 2.0 * opt.margin) / span;
        margin = opt.margin;
    }

    double x(Coord cx) const { return margin + scale * static_cast<double>(cx - min_x); }
    /// SVG y grows downward; flip so the plot matches grid orientation.
    double y(Coord cy) const { return margin + scale * static_cast<double>(max_y - cy); }
    double width_px() const { return 2 * margin + scale * static_cast<double>(max_x - min_x); }
    double height_px() const { return 2 * margin + scale * static_cast<double>(max_y - min_y); }
};

void emit_header(std::ostringstream& os, const Mapper& m)
{
    os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << m.width_px()
       << "\" height=\"" << m.height_px() << "\" viewBox=\"0 0 " << m.width_px()
       << ' ' << m.height_px() << "\">\n"
       << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
}

void emit_line(std::ostringstream& os, const Mapper& m, Point a, Point b,
               double stroke)
{
    os << "<line x1=\"" << m.x(a.x) << "\" y1=\"" << m.y(a.y) << "\" x2=\""
       << m.x(b.x) << "\" y2=\"" << m.y(b.y)
       << "\" stroke=\"#2060c0\" stroke-linecap=\"round\" stroke-width=\"" << stroke
       << "\"/>\n";
}

void emit_terminals(std::ostringstream& os, const Mapper& m, const RoutingTree& tree)
{
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        const auto& n = tree.node(id);
        if (id == tree.root()) {
            os << "<rect x=\"" << m.x(n.p.x) - 5 << "\" y=\"" << m.y(n.p.y) - 5
               << "\" width=\"10\" height=\"10\" fill=\"#c03020\"/>\n";
        } else if (n.is_sink) {
            os << "<circle cx=\"" << m.x(n.p.x) << "\" cy=\"" << m.y(n.p.y)
               << "\" r=\"4\" fill=\"#209040\"/>\n";
        }
    }
}

}  // namespace

std::string to_svg_reference(const RoutingTree& tree, const SvgOptions& options)
{
    const Mapper m(tree, options);
    std::ostringstream os;
    emit_header(os, m);
    tree.for_each_edge([&](NodeId id) {
        emit_line(os, m, tree.point(tree.node(id).parent), tree.point(id),
                  options.base_stroke);
    });
    if (options.label_terminals) emit_terminals(os, m, tree);
    os << "</svg>\n";
    return os.str();
}

}  // namespace cong93
