// The forest grown by the A-tree algorithm (Section 3.2).
//
// The forest starts as single-node arborescences (the source at the origin
// plus every sink in the first quadrant) and is grown by *moves*: each move
// adds a rectilinear path that either extends one arborescence toward the
// origin or merges two arborescences.  Within an arborescence every node
// dominates the arborescence's root, and edges are directed away from it.
//
// This class owns the geometric bookkeeping: the regional queries dx/dy/df
// and mx/my/mf of Definitions 4-7 (treating *edge interiors* as forest
// points, as the paper does), edge splitting when a path lands mid-segment,
// and truncation of new paths at their first contact with another
// arborescence.
//
// A root query has two independent parts, exposed separately so that
// MoveEngine can keep them current across moves: the df part (df, mf_west,
// mf_south; one region-pruned sweep of the segment index) and the mx/my part
// (dx, dy, mx, my; one pass over the live root points, kept contiguous as
// root_points(), that collects the NW and SE candidates, then gate probes
// in increasing key order until one candidate is unblocked).
//
// Every geometric query exists in two forms: the default one, served by an
// append-only spatial segment index (atree/seg_index.h) that prunes by
// region, and a `*_reference` twin preserving the seed implementation's
// full scan over all forest segments.  The two are exactly equivalent (the
// randomized suite in tests/test_forest_index.cpp asserts it); the reference
// forms remain as the oracle and are defined only in the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ATREE_FOREST_H
#define CONG93_ATREE_FOREST_H

#include <array>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "atree/seg_index.h"
#include "geom/point.h"
#include "geom/segment.h"

namespace cong93 {

/// Sentinel "infinite" distance for missing mx/my/mf (compared, never added).
inline constexpr Length kInfLen = std::numeric_limits<Length>::max() / 4;

/// Up to two segments stored inline: the geometry one applied path adds.
class SegPair {
public:
    void push_back(const Seg& s) { segs_[n_++] = s; }
    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    const Seg& operator[](std::size_t i) const { return segs_[i]; }
    const Seg& back() const { return segs_[n_ - 1]; }
    const Seg* begin() const { return segs_.data(); }
    const Seg* end() const { return segs_.data() + n_; }

private:
    std::array<Seg, 2> segs_{Seg(Point{0, 0}), Seg(Point{0, 0})};
    std::size_t n_ = 0;
};

class Forest {
public:
    /// A node with an intrusive child list: children() walks first_child
    /// and the next_sibling links, in the order the children were attached
    /// (an edge split puts the new node where the split child was).
    struct NodeRec {
        Point p;
        int parent = -1;             ///< parent node id within the arborescence
        int first_child = -1;
        int last_child = -1;
        int next_sibling = -1;       ///< next child of `parent`, -1 at the end
        int tree = -1;               ///< arborescence id
        bool terminal = false;       ///< source or sink of the net
    };

    /// Range over one node's children (see NodeRec), for range-for loops.
    class ChildRange {
    public:
        class iterator {
        public:
            iterator(const std::vector<NodeRec>& nodes, int id) : nodes_(&nodes), id_(id) {}
            int operator*() const { return id_; }
            iterator& operator++()
            {
                id_ = (*nodes_)[static_cast<std::size_t>(id_)].next_sibling;
                return *this;
            }
            bool operator!=(const iterator& o) const { return id_ != o.id_; }

        private:
            const std::vector<NodeRec>* nodes_;
            int id_;
        };
        ChildRange(const std::vector<NodeRec>& nodes, int first) : nodes_(&nodes), first_(first) {}
        iterator begin() const { return {*nodes_, first_}; }
        iterator end() const { return {*nodes_, -1}; }

    private:
        const std::vector<NodeRec>* nodes_;
        int first_;
    };

    /// The regional quantities of Definitions 6-7 for a root node p.
    struct RootQuery {
        Length dx = kInfLen;              ///< horizontal distance to mx
        Length dy = kInfLen;              ///< vertical distance to my
        Length df = kInfLen;              ///< L1 distance to MF(p)
        std::optional<Point> mx;          ///< unblocked NW root, min horiz dist
        std::optional<Point> my;          ///< unblocked SE root, min vert dist
        std::optional<Point> mf_west;     ///< westmost nearest dominated point
        std::optional<Point> mf_south;    ///< southmost nearest dominated point
    };

    /// Creates the initial forest F_0 for a first-quadrant net: `source` must
    /// be (0,0) and every sink must have nonnegative coordinates.  Duplicate
    /// terminals are collapsed: node ids follow the sinks' first occurrences
    /// (source first), and node and root storage is reserved from the sink
    /// count.
    Forest(Point source, const std::vector<Point>& sinks) { reset(source, sinks); }
    /// An empty forest, to be filled by reset().
    Forest() = default;

    /// Restarts the forest as F_0 for a new net (same contract as the
    /// constructor), reusing the storage of the previous construction.
    void reset(Point source, const std::vector<Point>& sinks);

    std::size_t node_count() const { return nodes_.size(); }
    const NodeRec& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
    /// Children of node `id`, in attachment order.
    ChildRange children(int id) const { return {nodes_, node(id).first_child}; }
    int source_node() const { return source_node_; }
    /// Terminal node at the position of sink i (the constructor's i-th
    /// sink): the first occurrence's node for duplicates, the source node
    /// for sinks at the origin.  Nodes never move, so this holds for the
    /// whole construction.
    int sink_node(std::size_t i) const { return sink_nodes_.at(i); }

    /// Current root node ids, one per arborescence.
    const std::vector<int>& roots() const { return roots_; }
    /// Point of every root, parallel to roots().
    const std::vector<Point>& root_points() const { return root_points_; }
    bool single_tree() const { return roots_.size() == 1; }

    /// Root node id of the arborescence containing `id`.
    int root_of_tree(int tree_id) const { return tree_roots_.at(static_cast<std::size_t>(tree_id)); }

    /// Root node id exactly at p, or -1 (a scan over the roots; root points
    /// are pairwise distinct).
    int root_at(Point p) const;

    /// Reusable candidate buffers for analyze_mxmy().
    struct MxMyScratch {
        std::vector<Point> nw;
        std::vector<Point> se;
    };

    /// Computes dx/dy/df and the m-points for a root node (indexed path):
    /// analyze_df() then analyze_mxmy().
    RootQuery analyze(int root_id, MxMyScratch& scratch) const;
    RootQuery analyze(int root_id) const;
    /// Recomputes dx, dy, mx and my of `q` for root `root_id`.
    void analyze_mxmy(int root_id, RootQuery& q, MxMyScratch& scratch) const;
    /// Definition 5 blocking tests: is root r, northwest (resp. southeast)
    /// of p, blocked from p by some forest point?
    bool nw_blocked(Point p, Point r) const
    {
        return index_.hits_vertical_gate(r.x, p.y, r.y);
    }
    bool se_blocked(Point p, Point r) const
    {
        return index_.hits_horizontal_gate(r.y, p.x, r.x);
    }
    /// Seed implementation: full scan over every forest segment per query.
    RootQuery analyze_reference(int root_id) const;

    /// Result of applying a path.
    struct PathResult {
        int end_node = -1;    ///< node at the path's final point
        bool merged = false;  ///< true when the path reached another tree
        Point end_point;      ///< where the path actually ended (may be a
                              ///< truncation point before the requested target)
        int new_root = -1;    ///< root of the tree containing the path after
                              ///< the move: end_node when a new root was
                              ///< created, the surviving root on a merge, and
                              ///< from_root for rejected zero-length paths
        int prev_root = -1;   ///< from_root (no longer a root unless the path
                              ///< had zero length)
        Point prev_point;     ///< from_root's position
        SegPair added_segs;   ///< new edge geometry, one Seg per leg piece
                              ///< (empty for zero-length paths)
    };

    /// Adds the rectilinear path from root `from_root` through at most two
    /// `waypoints` (consecutive points axis-aligned; every move of the
    /// engine is one or two legs).  The path is truncated at its first
    /// contact with another arborescence, where the trees merge; otherwise
    /// the final point becomes the new root of `from_root`'s tree.  Length-0
    /// paths are rejected (returns end_node == from_root, merged == false).
    PathResult apply_path(int from_root, std::initializer_list<Point> waypoints);

    /// Total wirelength of the forest.
    Length total_length() const { return total_length_; }

    /// Heap bytes held by the forest's storage (capacities).
    std::size_t capacity_bytes() const;

    /// True if point p lies on any arborescence (node or edge interior).
    bool covers(Point p) const;
    bool covers_reference(Point p) const;

    /// L1 distance from p to the nearest forest point dominated by p,
    /// ignoring the given trees (kInfLen when none exists).  Used to estimate
    /// df(p', F_{k+1}) for a prospective H2 corner p'.
    Length nearest_dominated_dist(Point p, int exclude_tree1 = -1,
                                  int exclude_tree2 = -1) const;
    Length nearest_dominated_dist_reference(Point p, int exclude_tree1 = -1,
                                            int exclude_tree2 = -1) const;

    /// First contact of the leg with any tree other than `own_tree`, as
    /// (distance along the leg, tree id).  Public so the equivalence suite
    /// can cross-check the two implementations directly.
    std::optional<std::pair<Length, int>> first_contact(const Leg& leg,
                                                        int own_tree) const;
    std::optional<std::pair<Length, int>> first_contact_reference(
        const Leg& leg, int own_tree) const;

private:
    /// Recomputes df, mf_west and mf_south of `q` for root `root_id`.
    void analyze_df(int root_id, RootQuery& q) const;
    /// Tree id of a node id taken from the index (unchecked).
    int tree_of(int id) const { return nodes_[static_cast<std::size_t>(id)].tree; }
    int new_node(Point p, int tree);
    void append_child(int parent, int child);
    /// Node exactly at p, where p lies on the index interval owned by node
    /// `owner`: owner itself, a node above it on the same straight run, or
    /// a new node splitting the edge of that run whose interior holds p.
    int materialize(Point p, int owner);
    /// Splits the edge from child_id to its parent at interior point p;
    /// the new node takes child_id's place among the parent's children.
    int split_edge(int child_id, Point p);
    void set_tree(int node_id, int tree_id);  // relabel a whole subtree

    std::vector<NodeRec> nodes_;
    std::vector<int> roots_;       ///< node ids
    std::vector<Point> root_points_;  ///< parallel to roots_
    std::vector<int> tree_roots_;  ///< tree id -> root node id (-1 once absorbed)
    std::vector<int> sink_nodes_;  ///< constructor sink index -> terminal node
    SegIndex index_;
    std::vector<int> stack_;       ///< set_tree DFS / constructor sort scratch
    int source_node_ = -1;
    Length total_length_ = 0;
};

}  // namespace cong93

#endif  // CONG93_ATREE_FOREST_H
