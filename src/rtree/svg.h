// Standalone SVG rendering of routing trees -- wires, terminals, and
// (optionally) wire widths, with stroke widths proportional to the assigned
// normalized widths.  Output is a self-contained SVG document string.
//
// Rendering takes only the compiled FlatTree (the analysis IR): edges are
// emitted in flat preorder (== the pointer walk's for_each_edge order) and
// terminal markers in ascending node-id order via flat_of(), so the flat
// path is byte-identical to the seed pointer walk (preserved as
// to_svg_reference in oracle/svg_reference.h, cong_oracles target).
#ifndef CONG93_RTREE_SVG_H
#define CONG93_RTREE_SVG_H

#include <cstdint>
#include <string>
#include <vector>

#include "rtree/flat_tree.h"

namespace cong93 {

struct SvgOptions {
    double pixels = 640.0;        ///< longest image dimension in px
    double margin = 20.0;         ///< border in px
    double base_stroke = 2.0;     ///< stroke width of a W1 wire in px
    bool label_terminals = true;  ///< draw source/sink markers
};

/// Uniform-width rendering over the compiled IR.
std::string to_svg(const FlatTree& ft, const SvgOptions& options = {});

/// Wiresized rendering: `seg_tail[i]` is the flat index of segment i's
/// tail (WiresizeContext::seg_tail_flat()) and `norm_widths[i]` its
/// normalized width (e.g. `widths[assignment[i]]` from a wiresizing
/// result); each segment's stroke is scaled by it.  A segment runs from its
/// tail up to the nearest non-trivial ancestor (Section 2.2).
std::string to_svg_wiresized(const FlatTree& ft,
                             const std::vector<std::int32_t>& seg_tail,
                             const std::vector<double>& norm_widths,
                             const SvgOptions& options = {});

}  // namespace cong93

#endif  // CONG93_RTREE_SVG_H
