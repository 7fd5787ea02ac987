// Geometric cost functions of the MDRT formulation (Eq. 8):
//   length(T)            -- total wirelength, the OST objective (drives t1)
//   Σ_{sinks k} pl_k(T)  -- the SPT objective (drives t2)
//   Σ_{nodes k} pl_k(T)  -- sum over *all grid points* of the tree, the QMST
//                           objective (drives t3)
// All values are exact 64-bit integers in grid units (the QMST sum is
// range-checked and throws rather than wrap).
//
// Every metric exists twice.  The FlatTree overloads make one pass over the
// compiled preorder arrays (the analysis IR).  The RoutingTree overloads
// make one pass over the tree's node array in id order, reading
// RoutingTree::edge_length and the maintained Node::pl; they never compile a
// throwaway FlatTree and never allocate.  The A-tree constructors price
// every tree they build through them.  Both forms are O(n) and agree bit for
// bit: every sum here is an exact integer accumulation, so visiting order
// does not matter.  The seed pointer-walk bodies survive as `*_reference`
// oracles in the cong_oracles target (CONG93_BUILD_ORACLES).
#ifndef CONG93_RTREE_METRICS_H
#define CONG93_RTREE_METRICS_H

#include "rtree/flat_tree.h"
#include "rtree/routing_tree.h"

namespace cong93 {

/// Total wirelength of the tree in grid units.
Length total_length(const FlatTree& ft);
Length total_length(const RoutingTree& tree);

/// Σ over sinks of the source-to-sink path length.
Length sum_sink_path_lengths(const FlatTree& ft);
Length sum_sink_path_lengths(const RoutingTree& tree);

/// Σ over every grid node of the tree of its source path length (the QMST
/// cost).  Each edge of length l starting at path length a contributes
/// Σ_{j=1..l} (a+j) = l*a + l(l+1)/2; the source contributes 0.  Accumulated
/// in 128 bits; throws std::overflow_error when the total does not fit
/// int64.
Length sum_all_node_path_lengths(const FlatTree& ft);
Length sum_all_node_path_lengths(const RoutingTree& tree);

/// Longest source-to-sink path length (tree radius).
Length radius(const FlatTree& ft);
Length radius(const RoutingTree& tree);

/// Largest rectilinear source-to-sink distance of the net (lower bound on
/// any tree's radius).
Length net_radius(const Net& net);

/// MDRT objective alpha*length + beta*Σ_sinks pl + gamma*Σ_nodes pl (Eq. 8).
double mdrt_cost(const FlatTree& ft, double alpha, double beta, double gamma);
double mdrt_cost(const RoutingTree& tree, double alpha, double beta, double gamma);

// Seed pointer-walk twins, defined only in the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).  Equivalence oracles for tests and benches.
Length total_length_reference(const RoutingTree& tree);
Length sum_sink_path_lengths_reference(const RoutingTree& tree);
Length sum_all_node_path_lengths_reference(const RoutingTree& tree);
Length radius_reference(const RoutingTree& tree);
double mdrt_cost_reference(const RoutingTree& tree, double alpha, double beta,
                           double gamma);

}  // namespace cong93

#endif  // CONG93_RTREE_METRICS_H
