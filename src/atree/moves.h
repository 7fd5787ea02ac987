// Move selection and application for the A-tree algorithm (Section 3.2-3.4).
//
// Safe moves (S1/S2/S3) are provably optimal (Theorem 1 for wirelength,
// Theorem 2 for the QMST cost) and are always preferred.  When none applies,
// a heuristic move (H1/H2, after Rao et al.) is made and its suboptimality
// bound SB(pi) (Section 3.4) is accumulated: cost(T) - Σ SB is a valid lower
// bound on the optimal arborescence cost, and likewise for the QMST cost via
// sigma_qmst.
//
// The engine runs in one of two modes.  `Mode::indexed` (the default) keeps
// a per-root cache of Forest::analyze results and a maintained
// farthest-first scan order, and keeps the cached queries current as paths
// are applied instead of re-deriving them.  Each applied path reports the
// geometry and root changes it made; for every other cached root
//   * df/mf fold in each new segment's nearest dominated point with the
//     same (d, x, y) / (d, y, x) tie-breaks as the full sweep (exact:
//     geometry only grows, and the new segments belong to another tree),
//   * an unmerged move's new root replaces mx (resp. my) when its key is
//     smaller and its gate is open (every smaller key was blocked and
//     still is),
//   * otherwise mx/my go stale when a new segment crosses the gate of a
//     cached mx/my that stayed put, or the cached mx/my was the root that
//     moved; stale mx/my is re-derived alone on the next query, keeping df.
// Only the moved root and a merge's surviving root lose their whole query,
// and an unmerged move's new root inherits the old root's df part when its
// mf_west and mf_south are dominated by the new root (the other trees are
// unchanged and every distance shrinks by the move's length), deriving
// only mx/my.  full_analyses() and mxmy_rederivations() count the work.
// `Mode::reference` preserves the seed behavior -- re-sort all roots and
// re-derive every query from a full segment scan on every step (mirroring
// the grewsa_reference convention).  Both modes make identical move
// sequences and produce bit-identical forests.
#ifndef CONG93_ATREE_MOVES_H
#define CONG93_ATREE_MOVES_H

#include <optional>
#include <vector>

#include "atree/forest.h"

namespace cong93 {

enum class MoveType { s1, s2, s3, h1, h2 };

const char* to_string(MoveType t);

/// How a heuristic move is selected when no safe move exists.
enum class HeuristicPolicy {
    /// The paper's A-tree rule: maximize the distance of p' from the source.
    farthest_corner,
    /// The paper's lower-bound rule: minimize the (estimated) SB(pi).
    min_suboptimality,
};

/// Which query path drives the engine (see the header comment).
enum class Mode {
    indexed,    ///< spatial index + cached root queries with dirty-set
                ///< invalidation (default)
    reference,  ///< the seed full-rescan path, kept as the oracle/baseline
};

struct MoveRecord {
    MoveType type;
    Point from1;          ///< the moved root p (or p1 for H2)
    Point from2;          ///< p2 for H2 moves
    Point to;             ///< actual end point p' (after any truncation)
    Length added = 0;     ///< wirelength added by the move
    Length sb = 0;        ///< suboptimality bound contribution (wirelength)
    Length sb_qmst = 0;   ///< suboptimality bound contribution (QMST cost)
};

/// sigma_qmst(p, d): QMST cost of a d-unit monotone path ending at p
/// (Lemma 3): Σ_{i=0..d-1} (p.x + p.y - i).
Length sigma_qmst(Point p, Length d);

/// Drives a Forest to completion one move at a time.  The engine assumes it
/// is the only mutator of the forest once stepping begins (external
/// apply_path calls would invalidate the indexed mode's cache).
class MoveEngine {
public:
    /// `use_safe_moves = false` degenerates to the pure heuristic
    /// construction of Rao et al. (an ablation; the paper's algorithm always
    /// prefers safe moves).
    MoveEngine(Forest& forest, HeuristicPolicy policy, bool use_safe_moves = true,
               Mode mode = Mode::indexed)
    {
        reset(forest, policy, use_safe_moves, mode);
    }
    /// An engine bound to no forest, to be started by reset().
    MoveEngine() = default;

    /// Restarts the engine on `forest` (same contract as the constructor),
    /// reusing the cache, order, log and candidate storage of the previous
    /// construction.
    void reset(Forest& forest, HeuristicPolicy policy, bool use_safe_moves = true,
               Mode mode = Mode::indexed);

    /// Performs one move.  Returns false when the forest is already a single
    /// arborescence (no move performed).
    bool step();

    /// Runs until a single arborescence remains.
    void run();

    const std::vector<MoveRecord>& log() const { return log_; }
    int safe_moves() const { return safe_moves_; }
    int heuristic_moves() const { return heuristic_moves_; }
    Length sb_total() const { return sb_total_; }
    Length sb_qmst_total() const { return sb_qmst_total_; }

    /// Root queries derived from scratch (analyze, or analyze_reference in
    /// reference mode) since reset().
    long full_analyses() const { return full_analyses_; }
    /// Stale mx/my parts re-derived (indexed mode) since reset().
    long mxmy_rederivations() const { return mxmy_rederivations_; }

    /// Test access: the query the indexed engine would serve for `root_id`
    /// from its cache right now (stale mx/my re-derived on the side), or
    /// nullopt when it caches none for that root (always in reference
    /// mode).
    std::optional<Forest::RootQuery> peek_query(int root_id) const;

    /// Heap bytes held by the engine's storage (capacities).
    std::size_t capacity_bytes() const;

private:
    /// A cached root query (indexed mode).
    struct Cached {
        Forest::RootQuery q;
        bool valid = false;       ///< q holds this root's query
        bool mxmy_stale = false;  ///< q's dx/dy/mx/my need re-deriving
    };

    /// A movable root and its query, as heuristic_move() weighs it.
    struct Cand {
        int root = -1;
        Point p;
        Forest::RootQuery q;
    };

    bool try_safe_move();
    void heuristic_move();
    void record(MoveRecord rec);
    /// The root query for `root_id`: cached (indexed) or freshly re-derived
    /// from the full scan (reference).
    Forest::RootQuery query(int root_id);
    /// Roots in the safe-move scan order (farthest from the origin first).
    /// The reference is invalidated by the next applied path.
    const std::vector<int>& scan_order();
    /// Absorbs an applied path into the cache/order bookkeeping: drops the
    /// moved root (and a merge's survivor), inserts the new one, and brings
    /// every other cached query up to date (see the header comment).
    void note_path(const Forest::PathResult& pr);

    Forest* forest_ = nullptr;
    HeuristicPolicy policy_ = HeuristicPolicy::farthest_corner;
    bool use_safe_moves_ = true;
    Mode mode_ = Mode::indexed;
    /// Cached root queries (indexed mode), indexed by node id; only roots
    /// are ever cached.
    std::vector<Cached> cache_;
    Forest::MxMyScratch mxmy_scratch_;
    std::vector<int> order_;  ///< scan order (maintained in indexed mode,
                              ///< re-sorted per step in reference mode)
    bool order_ready_ = false;
    std::vector<MoveRecord> log_;
    std::vector<Cand> cands_;  ///< heuristic_move() candidates
    int safe_moves_ = 0;
    int heuristic_moves_ = 0;
    Length sb_total_ = 0;
    Length sb_qmst_total_ = 0;
    long full_analyses_ = 0;
    long mxmy_rederivations_ = 0;
};

}  // namespace cong93

#endif  // CONG93_ATREE_MOVES_H
