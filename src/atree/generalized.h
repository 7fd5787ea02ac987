// Generalized A-tree construction for arbitrary sink positions (the paper's
// Section 3, last paragraph: "routing is performed for all quadrants").
//
// Sinks are partitioned into the four quadrants around the source (axis
// sinks join the adjacent quadrant whose interior sink population is
// nearest), each quadrant is reflected into the first quadrant, solved with
// the first-quadrant A-tree algorithm, reflected back, and the four
// arborescences are joined at the source.  The result is an A-tree by
// Definition 1: every source-to-node path stays inside one quadrant and is
// monotone, hence rectilinearly shortest.
//
// The three phases are exposed separately -- partition_quadrants /
// quadrant_subnet / assemble_quadrants -- and build_atree_general composes
// exactly these three; assembling previously built quadrant results is
// bit-identical to a from-scratch construction.
//
// emit_atree is the same construction for callers that only need the
// compiled tree (the batch pipeline's A-tree rung): each quadrant is built
// in one reusable forest (AtreeScratch) and grafted straight into a
// FlatTree in preorder, with no RoutingTree in between.  Both paths run
// the one assembly in generalized.cpp -- the same graft walk, reflection,
// sink marking and coverage pass -- over different quadrant and output
// representations.
//
// The quadrants are independent subproblems: a sink edit that leaves a
// quadrant's partitioned sink list unchanged leaves that quadrant's A-tree
// unchanged.  emit_atree records the contiguous row range each quadrant
// occupies, an incremental caller (session/session.h) keeps those rows as
// AtreeRows, and a later emit_atree replays every quadrant whose sink list
// still matches by a linear copy instead of rebuilding it.
#ifndef CONG93_ATREE_GENERALIZED_H
#define CONG93_ATREE_GENERALIZED_H

#include <array>
#include <cstdint>
#include <vector>

#include "atree/atree.h"
#include "rtree/flat_tree.h"

namespace cong93 {

/// One sink in source-relative coordinates, carrying its load cap.
struct RelSink {
    Point p;           ///< sink position minus the net source
    double cap = -1.0; ///< Net::sink_cap(i) of the originating sink

    friend bool operator==(const RelSink& a, const RelSink& b)
    {
        return a.p == b.p && a.cap == b.cap;
    }
    friend bool operator!=(const RelSink& a, const RelSink& b)
    {
        return !(a == b);
    }
};

/// The net's sinks partitioned around its source.  Quadrant order is
/// 0 => (+,+), 1 => (-,+), 2 => (-,-), 3 => (+,-); within a quadrant,
/// interior sinks keep net order and homed axis sinks follow, also in net
/// order.  Sinks coincident with the source are dropped (the assembly's
/// coverage pass marks them on the root).
struct QuadrantPartition {
    std::array<std::vector<RelSink>, 4> quads;

    /// Sinks assigned across all quadrants.
    std::size_t total_sinks() const
    {
        std::size_t n = 0;
        for (const auto& q : quads) n += q.size();
        return n;
    }
};

/// Partitions net.sinks into the four quadrants around net.source.
/// Interior sinks are unambiguous; axis sinks join the adjacent quadrant
/// whose nearest interior sink is closest (preferring the lower quadrant
/// index on ties).  Deterministic function of the net alone.
QuadrantPartition partition_quadrants(const Net& net);
/// Buffer-reuse form: fills `out` (its quadrant lists cleared first), with
/// `axis` as scratch for the axis sinks.
void partition_quadrants(const Net& net, QuadrantPartition& out,
                         std::vector<RelSink>& axis);

/// First-quadrant subproblem of quadrant q: that quadrant's sinks reflected
/// into (+,+) with the source at the origin, caps carried along.  This is
/// the exact net build_atree_general hands to build_atree for quadrant q.
Net quadrant_subnet(const QuadrantPartition& part, int q);

/// Joins per-quadrant A-trees into the generalized result: reflects each
/// quadrant tree back, translates to absolute coordinates, grafts it at the
/// source, marks that quadrant's sinks, and runs the coverage-verification
/// pass over the combined tree.  `quads[q]` must be the build_atree result
/// of quadrant_subnet(part, q) (nullptr when part.quads[q] is empty); the
/// output is bit-identical to build_atree_general(net) whenever the inputs
/// match what it would build.  The combined cost and qmst_cost are the sums
/// of the quadrants' (the graft copies every quadrant node, and reflection
/// keeps path lengths); a QMST sum beyond int64 throws std::overflow_error.
/// Throws std::logic_error when a net sink is missing from the combined
/// tree.
AtreeResult assemble_quadrants(const Net& net, const QuadrantPartition& part,
                               const std::array<const AtreeResult*, 4>& quads);

/// Builds a generalized A-tree for a net whose sinks may lie anywhere.
AtreeResult build_atree_general(const Net& net, const AtreeOptions& options = {});

/// Reusable storage for emit_atree: the partition and quadrant-sink
/// buffers, the forest and move engine every quadrant is built in, and the
/// graft walk's scratch.  Everything only grows, so a warmed-up scratch
/// constructs without allocating.  One scratch serves one thread at a time
/// (a Workspace holds one per worker slot); contents do not outlive a call,
/// except that `part` and `quad_begin` describe the last emission.
struct AtreeScratch {
    QuadrantPartition part;
    std::vector<RelSink> axis;       ///< partition_quadrants' axis sinks
    std::vector<Point> sinks;        ///< current quadrant, reflected into (+,+)
    Forest forest;
    MoveEngine engine;
    std::vector<int> stack;          ///< graft walk
    std::vector<NodeId> map;         ///< forest node id -> emitted flat index
    std::vector<Point> marked;       ///< coverage pass
    /// Rows of quadrant q in the last emission: [quad_begin[q],
    /// quad_begin[q + 1]) (empty for an empty quadrant; row 0 is the root).
    std::array<std::int32_t, 5> quad_begin{};
    /// emit_atree calls that grew the storage (capacity_bytes() rose).
    std::uint64_t growths = 0;

    /// Heap bytes held by every buffer above (capacities).
    std::size_t capacity_bytes() const;
    /// Frees every buffer, keeping the growth count.
    void release();
};

/// One emitted row of a quadrant, translation-free: the parent is a row
/// index inside the same quadrant (-1 for the net source) and the point is
/// relative to the net source.
struct AtreeRow {
    std::int32_t parent = -1;
    Point d;
    bool sink = false;
    double cap = -1.0;  ///< sink load (FlatTree::sink_cap)
};

/// The quadrant rows of a prior emit_atree emission, for replay: the
/// partition it emitted from and each quadrant's rows in emission order.
struct AtreeRows {
    QuadrantPartition part;
    std::array<std::vector<AtreeRow>, 4> quads;

    /// Copies the emission emit_atree last wrote into `tree` through
    /// `scratch` (its partition and quadrant row ranges), reusing capacity.
    void capture(const AtreeScratch& scratch, const FlatTree& tree);
    /// Heap bytes held by the partition and the rows (capacities).
    std::size_t capacity_bytes() const;
};

/// build_atree_general(net, options), compiled straight into `out`: after
/// the call `out` holds the combined tree's per-node rows in preorder, and
/// out.finish() completes exactly the arrays FlatTree::build would compile
/// from build_atree_general(net, options).tree.  The caller finishes, so it
/// can vet the node count (out.size()) first.  Throws what
/// build_atree_general throws, including std::overflow_error when the QMST
/// cost -- checked on the emitted rows -- overflows int64; `out` is then
/// unfinished and must be rebuilt before use.
///
/// `prior`, when given, must come from an emission with the same options:
/// each quadrant whose partitioned sink list equals prior->part's is
/// appended from its stored rows, which is what building it would emit.
/// The coverage pass and the QMST check still run on the whole tree.
void emit_atree(const Net& net, AtreeScratch& scratch, FlatTree& out,
                const AtreeOptions& options = {},
                const AtreeRows* prior = nullptr);

}  // namespace cong93

#endif  // CONG93_ATREE_GENERALIZED_H
