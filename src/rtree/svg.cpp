#include "rtree/svg.h"

#include <algorithm>
#include <stdexcept>
#include <sstream>

namespace cong93 {

namespace {

struct Mapper {
    double scale = 1.0;
    double margin = 20.0;
    Coord min_x = 0, min_y = 0, max_x = 0, max_y = 0;

    Mapper(const FlatTree& ft, const SvgOptions& opt)
    {
        min_x = max_x = ft.point()[0].x;
        min_y = max_y = ft.point()[0].y;
        for (const Point p : ft.point()) {
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

/// Terminal markers in ascending node-id order (the seed renderer iterated
/// node ids), mapped through flat_of so the bytes match exactly.
void emit_terminals(std::ostringstream& os, const Mapper& m, const FlatTree& ft)
{
    for (std::size_t id = 0; id < ft.size(); ++id) {
        const std::int32_t fi = ft.flat_of(static_cast<NodeId>(id));
        const Point p = ft.point()[static_cast<std::size_t>(fi)];
        if (fi == 0) {
            os << "<rect x=\"" << m.x(p.x) - 5 << "\" y=\"" << m.y(p.y) - 5
               << "\" width=\"10\" height=\"10\" fill=\"#c03020\"/>\n";
        } else if (ft.is_sink()[static_cast<std::size_t>(fi)]) {
            os << "<circle cx=\"" << m.x(p.x) << "\" cy=\"" << m.y(p.y)
               << "\" r=\"4\" fill=\"#209040\"/>\n";
        }
    }
}

}  // namespace

std::string to_svg(const FlatTree& ft, const SvgOptions& options)
{
    const Mapper m(ft, options);
    std::ostringstream os;
    emit_header(os, m);
    const std::int32_t* parent = ft.parent().data();
    const Point* pt = ft.point().data();
    for (std::size_t fi = 1; fi < ft.size(); ++fi)
        emit_line(os, m, pt[parent[fi]], pt[fi], options.base_stroke);
    if (options.label_terminals) emit_terminals(os, m, ft);
    os << "</svg>\n";
    return os.str();
}

std::string to_svg_wiresized(const FlatTree& ft,
                             const std::vector<std::int32_t>& seg_tail,
                             const std::vector<double>& norm_widths,
                             const SvgOptions& options)
{
    if (norm_widths.size() != seg_tail.size())
        throw std::invalid_argument("to_svg_wiresized: width count mismatch");
    const Mapper m(ft, options);
    std::ostringstream os;
    emit_header(os, m);

    // Map each tree edge to its segment's width: walk each segment's chain
    // from its tail up to its head, the first non-trivial ancestor.
    std::vector<double> edge_width(ft.size(), options.base_stroke);
    const std::int32_t* parent = ft.parent().data();
    for (std::size_t si = 0; si < seg_tail.size(); ++si) {
        const double w = options.base_stroke * norm_widths[si];
        std::int32_t f = seg_tail[si];
        do {
            edge_width[static_cast<std::size_t>(f)] = w;
            f = parent[f];
        } while (!is_nontrivial(ft, f));
    }
    const Point* pt = ft.point().data();
    for (std::size_t fi = 1; fi < ft.size(); ++fi)
        emit_line(os, m, pt[parent[fi]], pt[fi],
                  edge_width[fi]);
    if (options.label_terminals) emit_terminals(os, m, ft);
    os << "</svg>\n";
    return os.str();
}

}  // namespace cong93
