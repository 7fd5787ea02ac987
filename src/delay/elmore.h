// Elmore delay (first moment of the impulse response) of a uniform-width
// routing tree under the distributed RC model.  Each edge is a uniform
// distributed RC line; the closed-form shared-resistance formulation is used
// (an on-path edge e with resistance Re and capacitance Ce contributes
// Re*(C_subtree(e) - Ce/2); the driver contributes Rd*C_total).
//
// The evaluators run over a FlatTree (rtree/flat_tree.h): subtree
// capacitances are one reverse pass over the preorder arrays and root-path
// walks read the dense parent array, with optional caller-owned scratch so a
// batch reuses its buffers.  The pointer-walk seed implementation is kept as
// elmore_all_sinks_reference in oracle/elmore_reference.h; both produce
// bit-identical results (the flat kernel accumulates in exactly the same
// order).
//
// The RPH bound of delay/rph.h dominates the Elmore delay at every sink
// (the RPH sum uses the full source->k resistance, which is >= the shared
// path resistance); tests rely on this ordering.
#ifndef CONG93_DELAY_ELMORE_H
#define CONG93_DELAY_ELMORE_H

#include <vector>

#include "rtree/flat_tree.h"
#include "tech/technology.h"

namespace cong93 {

/// Elmore delay (seconds) at every sink, in FlatTree::sinks() order.
std::vector<double> elmore_all_sinks(const FlatTree& ft, const Technology& tech);

/// Scratch-reusing form: `cap_scratch` holds the per-node subtree
/// capacitances on return, `out` the per-sink delays.  Neither allocates
/// once their capacity covers the tree.
void elmore_all_sinks(const FlatTree& ft, const Technology& tech,
                      std::vector<double>& cap_scratch, std::vector<double>& out);

}  // namespace cong93

#endif  // CONG93_DELAY_ELMORE_H
