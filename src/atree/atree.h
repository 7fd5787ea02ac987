// The A-tree algorithm (Section 3): near-optimal rectilinear Steiner
// arborescence construction for delay-driven interconnect topology design.
//
// `build_atree` handles first-quadrant nets (all sinks dominate the source);
// `build_atree_general` (atree/generalized.h) handles arbitrary nets by
// quadrant decomposition.
#ifndef CONG93_ATREE_ATREE_H
#define CONG93_ATREE_ATREE_H

#include "atree/moves.h"
#include "rtree/routing_tree.h"

namespace cong93 {

struct AtreeOptions {
    /// Heuristic-move selection rule.  `farthest_corner` is the paper's
    /// A-tree algorithm; `min_suboptimality` is the paper's lower-bound
    /// strategy (usually a worse tree but a tighter ERROR bound).
    HeuristicPolicy policy = HeuristicPolicy::farthest_corner;
    /// Ablation switch: false degenerates the algorithm to heuristic moves
    /// only (the plain Rao et al. construction).  Always true in the paper.
    bool use_safe_moves = true;
    /// Query engine: `indexed` (spatial index + cached root queries) or
    /// `reference` (the seed full-rescan path).  Bit-identical results.
    Mode mode = Mode::indexed;
};

struct AtreeResult {
    RoutingTree tree;
    int safe_moves = 0;
    int heuristic_moves = 0;
    Length cost = 0;              ///< wirelength of the constructed tree
    Length sb_total = 0;          ///< ERROR = Σ SB(pi) (wirelength)
    Length qmst_cost = 0;         ///< Σ_{nodes} pl_k of the constructed tree
    Length sb_qmst_total = 0;     ///< Σ SB_qmst(pi)

    /// True when the construction used safe moves only, in which case the
    /// tree is optimal under both the OST and QMST cost (Corollary 4).
    bool all_safe() const { return heuristic_moves == 0; }
    /// Lower bound on the optimal arborescence wirelength (Theorem 3).
    Length lower_bound() const { return cost - sb_total; }
    /// Lower bound on the optimal QMST cost over arborescences (Eq. 20).
    Length qmst_lower_bound() const { return qmst_cost - sb_qmst_total; }
};

/// Runs the A-tree algorithm on a first-quadrant net: every sink must
/// dominate the source.  Throws std::invalid_argument otherwise.
AtreeResult build_atree(const Net& net, const AtreeOptions& options = {});

/// The construction core every A-tree entry point shares: restarts `forest`
/// as F_0 of `sinks` (first quadrant, source at the origin) and runs
/// `engine` on it until one arborescence remains.  Both objects keep their
/// storage across calls, so a caller that holds on to them (AtreeScratch,
/// atree/generalized.h) constructs without allocating once warmed up.
void run_atree(Forest& forest, MoveEngine& engine, const std::vector<Point>& sinks,
               const AtreeOptions& options);

}  // namespace cong93

#endif  // CONG93_ATREE_ATREE_H
