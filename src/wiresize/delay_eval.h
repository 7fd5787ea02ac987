// Exact RPH delay of a wiresized routing tree (Eq. 9-13), evaluated per
// segment in closed form, plus the Theta/Phi decomposition (Eq. 43-46) used
// for O(1)-per-candidate local refinement.
//
// For a segment S_i of length l and normalized width w, with accumulated
// upstream resistance R_in = Rd + r0 * Σ_{a in ans} l_a/w_a:
//   * its own grid nodes contribute  R_in*c0*w*l + r0*c0*l(l+1)/2
//     (the second term is width-independent: within a segment w cancels);
//   * its tail load C contributes    (R_in + r0*l/w) * C;
//   * downstream segments see        R_in' = R_in + r0*l/w.
// Summed over all segments this equals Eq. 9 at grid granularity, including
// the constant t4.
//
// The context holds the segment tree in flat structure-of-arrays form
// (parent index, pre-cast double length, CSR children), compiled once from
// the FlatTree -- the analysis IR -- in the stack-DFS discovery order of the
// paper's reference decomposition (Section 2.2, kept in
// oracle/segments_reference.h), so no pointer tree is ever re-derived.  A
// context stores pointers to its FlatTree and Technology: both must outlive
// it.
//
// The delay/theta-phi kernels walk the dense arrays with reusable internal
// scratch; the seed pointer-walk implementations survive as *_reference
// twins over the reference decomposition in oracle/segments_reference.h
// (cong_oracles target, CONG93_BUILD_ORACLES).
// Because of the internal scratch a WiresizeContext must not be shared by
// two threads concurrently.  Every array only grows: reset() recompiles a
// context for the next net in place, so the batch pipeline keeps one
// context per worker slot (WiresizeScratch in combined.h, held by the
// slot's Workspace) and a warmed-up slot compiles without allocating.
#ifndef CONG93_WIRESIZE_DELAY_EVAL_H
#define CONG93_WIRESIZE_DELAY_EVAL_H

#include <cstdint>

#include "rtree/flat_tree.h"
#include "tech/technology.h"
#include "wiresize/assignment.h"

namespace cong93 {

/// Parent index of a segment incident on the source.
inline constexpr int kNoSegment = -1;

/// Precomputed per-net data shared by every wiresizing algorithm.
class WiresizeContext {
public:
    /// Compiles the segment arrays straight from the analysis IR.
    WiresizeContext(const FlatTree& ft, const Technology& tech, WidthSet widths);

    /// Recompiles this context for `ft`, `tech` and `widths` in place,
    /// reusing every array's capacity: the result is the context the
    /// constructor would build.
    void reset(const FlatTree& ft, const Technology& tech, const WidthSet& widths);

    /// Heap bytes held by every array, scratch included (capacities).
    std::size_t capacity_bytes() const;

    /// The originating FlatTree.
    const FlatTree& flat() const { return *ft_; }
    const Technology& tech() const { return *tech_; }
    const WidthSet& widths() const { return widths_; }
    int width_count() const { return widths_.count(); }
    std::size_t segment_count() const { return seg_parent_.size(); }

    /// Loading capacitance at segment i's tail (0 when not a sink).
    double tail_cap(std::size_t i) const { return tail_cap_[i]; }
    /// Σ of loading capacitance at or below segment i (farad).
    double downstream_sink_cap(std::size_t i) const { return down_cap_[i]; }

    /// Flat structure-of-arrays view of the segment tree, compiled in the
    /// constructor.  These are the only segment data the production
    /// algorithms (grewsa/owsa/bottom-up/incremental) touch.
    const std::vector<std::int32_t>& seg_parent() const { return seg_parent_; }
    const std::vector<double>& seg_length() const { return seg_length_; }
    const std::vector<std::int32_t>& seg_child_ptr() const { return seg_child_ptr_; }
    const std::vector<std::int32_t>& seg_child_idx() const { return seg_child_idx_; }
    /// Indices of the segments incident on the source, in discovery order.
    const std::vector<std::int32_t>& seg_roots() const { return seg_roots_; }
    /// Whether segment i's tail is a sink.
    const std::vector<std::uint8_t>& tail_is_sink() const { return tail_is_sink_; }
    /// Flat node index of segment i's tail.
    const std::vector<std::int32_t>& seg_tail_flat() const { return seg_tail_flat_; }

    /// Exact t(T) of Eq. 9 for the assignment, in seconds (flat kernel).
    double delay(const Assignment& a) const;

    /// The t1..t4 terms of Eq. 10-13 (flat kernel).
    struct Terms {
        double t1 = 0, t2 = 0, t3 = 0, t4 = 0;
        double total() const { return t1 + t2 + t3 + t4; }
    };
    Terms terms(const Assignment& a) const;

    /// Grid-node-level reference implementation (tests only).
    double delay_bruteforce(const Assignment& a) const;

    /// t = psi + theta*w_i + phi/w_i as a function of segment i's width
    /// (Eq. 43-46), for the other widths fixed by `a`.
    struct ThetaPhi {
        double theta = 0;
        double phi = 0;
        double psi = 0;
    };
    ThetaPhi theta_phi(const Assignment& a, std::size_t i) const;

    /// Like theta_phi but leaves psi = 0: the argmin over widths only needs
    /// theta and phi, and filling psi costs a full O(n) delay() evaluation.
    /// Flat kernel (dense parent walk + CSR descendant walk).
    ThetaPhi theta_phi_fast(const Assignment& a, std::size_t i) const;

    /// Width index in [0, max_idx] minimizing theta*w + phi/w (ties -> the
    /// narrowest width).  This is the paper's local refinement operation.
    int locally_optimal_width(const Assignment& a, std::size_t i, int max_idx) const;

private:
    /// A pending segment of the compile's stack DFS.
    struct Pending {
        std::int32_t start;       ///< non-trivial node the segment hangs from
        std::int32_t first;       ///< first node along the segment
        std::int32_t parent_seg;
    };

    /// The one compile path: segment arrays of `ft` against widths_.
    void compile(const FlatTree& ft, const Technology& tech);
    /// Accumulated upstream resistances R_in per segment into rin_scratch_.
    void upstream_resistance(const Assignment& a) const;
    const FlatTree* ft_ = nullptr;
    const Technology* tech_ = nullptr;
    WidthSet widths_;
    std::vector<double> tail_cap_;
    std::vector<double> down_cap_;
    // Compiled flat segment tree.
    std::vector<std::int32_t> seg_parent_;
    std::vector<double> seg_length_;
    std::vector<std::int32_t> seg_child_ptr_;
    std::vector<std::int32_t> seg_child_idx_;
    std::vector<std::int32_t> seg_roots_;
    std::vector<std::uint8_t> tail_is_sink_;
    std::vector<std::int32_t> seg_tail_flat_;
    // Reusable compile and evaluation scratch (single-thread use per
    // context); walk_scratch_ also serves as the compile's CSR cursor.
    std::vector<Pending> stack_;
    mutable std::vector<double> rin_scratch_;
    mutable std::vector<std::int32_t> walk_scratch_;
};

}  // namespace cong93

#endif  // CONG93_WIRESIZE_DELAY_EVAL_H
