// Geometric cost functions of the MDRT formulation (Eq. 8):
//   length(T)            -- total wirelength, the OST objective (drives t1)
//   Σ_{sinks k} pl_k(T)  -- the SPT objective (drives t2)
//   Σ_{nodes k} pl_k(T)  -- sum over *all grid points* of the tree, the QMST
//                           objective (drives t3)
// All values are exact 64-bit integers in grid units (the QMST sum is
// range-checked and throws rather than wrap).
//
// Each metric is one O(n) pass over a compiled FlatTree (the analysis IR).
// The A-tree constructors price their trees while they build them, through
// the same checked QMST accumulator (QmstSum).  The seed pointer-walk
// bodies survive as `*_reference` oracles in oracle/metrics_reference.h
// (cong_oracles target, CONG93_BUILD_ORACLES).
#ifndef CONG93_RTREE_METRICS_H
#define CONG93_RTREE_METRICS_H

#include "rtree/flat_tree.h"

namespace cong93 {

/// Checked QMST accumulation.  Terms and the running sum are 128-bit, so
/// neither can wrap; a sum beyond int64 throws std::overflow_error -- a net
/// validate_net admits can still get there (2048 sinks from a corner of the
/// ±2^28 box), and a wrapped cost would come out negative.
class QmstSum {
public:
    /// Adds an edge of length l whose tail sits at path length pl: its grid
    /// nodes contribute Σ_{j=1..l} (a+j) = l*a + l(l+1)/2 with a = pl - l.
    void add_edge(Length l, Length pl)
    {
        const __int128 wl = l;
        const __int128 a = static_cast<__int128>(pl) - l;
        sum_ += wl * a + wl * (wl + 1) / 2;
        check();
    }
    /// Adds the QMST cost of an already-priced subtree.
    void add_cost(Length cost)
    {
        sum_ += cost;
        check();
    }
    Length value() const { return static_cast<Length>(sum_); }

private:
    void check() const;

    __int128 sum_ = 0;
};

/// Total wirelength of the tree in grid units.
Length total_length(const FlatTree& ft);

/// Σ over sinks of the source-to-sink path length.
Length sum_sink_path_lengths(const FlatTree& ft);

/// Σ over every grid node of the tree of its source path length (the QMST
/// cost); the source contributes 0.  Throws std::overflow_error when the
/// total does not fit int64.
Length sum_all_node_path_lengths(const FlatTree& ft);

/// Longest source-to-sink path length (tree radius).
Length radius(const FlatTree& ft);

/// Largest rectilinear source-to-sink distance of the net (lower bound on
/// any tree's radius).
Length net_radius(const Net& net);

/// MDRT objective alpha*length + beta*Σ_sinks pl + gamma*Σ_nodes pl (Eq. 8).
double mdrt_cost(const FlatTree& ft, double alpha, double beta, double gamma);

}  // namespace cong93

#endif  // CONG93_RTREE_METRICS_H
