// The paper's reference wire-segment decomposition of a routing tree
// (Section 2.2), and the pointer-walk oracles over it.
//
// A *segment* is a maximal straight wire between two adjacent non-trivial
// nodes; a node is non-trivial when it is the source, a sink, a branching
// node, or a turning node.  Wiresizing assigns one width per segment.
//
// Production code describes a wiresized net only by its WiresizeContext,
// compiled from the FlatTree; these seed twins walk a SegmentDecomposition
// of the same routing tree instead, so the equivalence tests check the flat
// compile against an independent one.  They live here, not beside their
// flat twins, so that no production header names the decomposition.
// Defined only in the cong_oracles target (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_SEGMENTS_REFERENCE_H
#define CONG93_ORACLE_SEGMENTS_REFERENCE_H

#include <vector>

#include "rtree/routing_tree.h"
#include "sim/rc_tree.h"
#include "wiresize/delay_eval.h"

namespace cong93 {

struct WireSegment {
    NodeId head = kNoNode;      ///< non-trivial node closer to the source
    NodeId tail = kNoNode;      ///< non-trivial node at the far end
    Length length = 0;          ///< grid units, > 0
    int parent = kNoSegment;    ///< segment whose tail == head, or kNoSegment
    std::vector<int> children;  ///< segments hanging off the tail
    bool tail_is_sink = false;
    /// Extra loading capacitance at the tail in farad; < 0 means the
    /// technology default applies (only meaningful when tail_is_sink).
    double tail_sink_cap_f = -1.0;
};

/// Immutable segment view of a routing tree.  Segment indices are stable and
/// ordered so that a parent always precedes its children.
class SegmentDecomposition {
public:
    explicit SegmentDecomposition(const RoutingTree& tree);

    const RoutingTree& tree() const { return *tree_; }
    std::size_t count() const { return segments_.size(); }
    const WireSegment& operator[](std::size_t i) const { return segments_[i]; }
    const std::vector<WireSegment>& segments() const { return segments_; }

    /// Indices of segments incident on the source (stems of the SS-tree
    /// decomposition of Figure 13).
    const std::vector<int>& roots() const { return roots_; }

    /// Total loading capacitance (farad) hanging at or below each segment,
    /// i.e. Σ_{k in sink(S_i)} C_k, with `default_sink_cap_f` substituted for
    /// sinks that carry no explicit capacitance.
    std::vector<double> downstream_sink_cap(double default_sink_cap_f) const;

    /// Sum of `length` over all segments (equals the tree's total length).
    Length total_length() const;

private:
    const RoutingTree* tree_;
    std::vector<WireSegment> segments_;
    std::vector<int> roots_;
};

/// True when the node is non-trivial in `tree` (source/sink/branch/turn).
bool is_nontrivial(const RoutingTree& tree, NodeId id);

/// Seed pointer-walk t(T) of Eq. 9; bit-identical to ctx.delay(a) when
/// `segs` decomposes the tree `ctx` was compiled from.
double delay_reference(const WiresizeContext& ctx, const SegmentDecomposition& segs,
                       const Assignment& a);

/// Seed pointer-walk t1..t4; bit-identical to ctx.terms(a).
WiresizeContext::Terms terms_reference(const WiresizeContext& ctx,
                                       const SegmentDecomposition& segs,
                                       const Assignment& a);

/// Seed pointer-walk theta/phi; bit-identical to ctx.theta_phi_fast(a, i).
WiresizeContext::ThetaPhi theta_phi_fast_reference(const WiresizeContext& ctx,
                                                   const SegmentDecomposition& segs,
                                                   const Assignment& a, std::size_t i);

/// Seed pointer-walk RC builder of a wiresized tree; bit-identical to
/// RcTree::from_wiresized_flat on a context of the same tree and widths.
RcTree from_wiresized_tree_reference(const SegmentDecomposition& segs,
                                     const Technology& tech, const WidthSet& widths,
                                     const Assignment& assignment,
                                     int sections_per_edge = 16,
                                     bool with_inductance = false);

}  // namespace cong93

#endif  // CONG93_ORACLE_SEGMENTS_REFERENCE_H
