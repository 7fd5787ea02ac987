// Pointer-walk oracles over the paper's reference segment decomposition
// (rtree/segments.h, Section 2.2).  Production code describes a wiresized
// net only by its WiresizeContext, compiled from the FlatTree; these seed
// twins walk a SegmentDecomposition of the same routing tree instead, so the
// equivalence tests check the flat compile against an independent one.
// They live here, not beside their flat twins, so that no production header
// names the decomposition.  Defined only in the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_SEGMENTS_REFERENCE_H
#define CONG93_ORACLE_SEGMENTS_REFERENCE_H

#include "rtree/segments.h"
#include "sim/rc_tree.h"
#include "wiresize/delay_eval.h"

namespace cong93 {

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
