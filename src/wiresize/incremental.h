// Incremental delay-evaluation engine for wiresizing (perf core).
//
// The closed-form delay of delay_eval.h is a sum of per-segment terms in
// which segment i's width w_i appears only as
//
//   t(f) = psi_i + theta_i * w_i + phi_i / w_i          (Eq. 43-46)
//
// with theta_i depending on the *ancestor* widths (through the upstream
// resistance R_in[i]) and phi_i on the *descendant* widths (through the
// downstream weighted wire capacitance Sigma w_d*l_d and the downstream sink
// capacitance).  A width change at segment i therefore only perturbs
//
//   * the total delay, by theta_i*dw + phi_i*d(1/w)          -- O(1);
//   * wire_below[p] for the ancestors p of i                 -- O(depth);
//   * R_in[d] for the descendants d of i.
//
// The engine caches the downstream aggregates (wire_below, plus the static
// downstream sink cap held by the WiresizeContext) and the total delay, and
// maintains them under single-width updates via apply_width(i, k) by delta
// propagation along the root path only.  R_in is *not* eagerly propagated
// through the subtree: on a chain that would cost O(subtree) per update and
// give the sweep back its O(n^2); instead theta is evaluated lazily by an
// O(depth) ancestor walk at query time.  Both theta_phi() and
// locally_optimal_width() are thus O(depth + r) instead of the O(n) of the
// context's reference path, and a full GREWSA sweep drops from O(n^2) to
// O(n * depth).
//
// Numerical note: for integer segment lengths and the paper's integer width
// multipliers {1..r}, every w_d*l_d is exactly representable, so the
// incrementally maintained wire_below is bit-identical to a from-scratch
// recomputation and GREWSA fixpoints are bit-identical to the reference
// implementation.  The cached total delay accumulates one rounding per
// update; delay() is still within ~1e-12 relative of a fresh evaluation over
// thousands of updates (tested against delay_bruteforce).
//
// An engine is reusable: reset(ctx, a) re-seeds it on any context, keeping
// its buffers, so the slot scratch of the batch pipeline (WiresizeScratch,
// combined.h) runs GREWSA from min and from max -- and the session's
// warm-started sweeps -- on one engine per worker slot.
#ifndef CONG93_WIRESIZE_INCREMENTAL_H
#define CONG93_WIRESIZE_INCREMENTAL_H

#include <cstdint>

#include "wiresize/delay_eval.h"

namespace cong93 {

class IncrementalDelayEngine {
public:
    /// An unseeded engine for reusable storage; reset(ctx, a) seeds it.
    IncrementalDelayEngine() = default;

    /// O(n) build of the cached aggregates for `initial`.
    IncrementalDelayEngine(const WiresizeContext& ctx, Assignment initial);

    const WiresizeContext& context() const { return *ctx_; }
    const Assignment& assignment() const { return a_; }
    int width_index(std::size_t i) const { return a_[i]; }

    /// Cached t(T) of Eq. 9 for the current assignment, in seconds.  O(1).
    double delay() const { return delay_; }

    /// Sigma over strict descendants d of i of w_d * l_d (cached).  O(1).
    double wire_below(std::size_t i) const { return wire_below_[i]; }

    /// Set segment i's width index to k, updating the cached delay and the
    /// ancestors' wire_below aggregates.  O(depth(i)).
    void apply_width(std::size_t i, int k);

    /// Replace the whole assignment and rebuild every cache.  O(n).
    void reset(Assignment a);

    /// Re-seed on `ctx` with a copy of `a`, reusing this engine's buffers:
    /// the state the constructor would build.  O(n).
    void reset(const WiresizeContext& ctx, const Assignment& a);

    /// Heap bytes held by the assignment and the aggregates (capacities).
    std::size_t capacity_bytes() const;

    /// Theta/Phi decomposition at segment i for the current assignment
    /// (identical arithmetic to WiresizeContext::theta_phi, but phi reads
    /// the cached aggregate and psi the cached delay).  O(depth(i)).
    WiresizeContext::ThetaPhi theta_phi(std::size_t i) const;

    /// Width index in [0, max_idx] minimizing theta*w + phi/w, ties to the
    /// narrowest width -- same tie-breaking as the context's reference
    /// implementation.  O(depth(i) + max_idx).
    int locally_optimal_width(std::size_t i, int max_idx) const;

    /// Apply the locally optimal width at i; true when the width changed.
    bool refine(std::size_t i, int max_idx);

    /// Restricted GREWSA sweep: repeatedly refines exactly the listed
    /// segments, ascending, until one full pass over them changes nothing.
    /// `segments` must be in ascending index order (parents before
    /// children), matching grewsa()'s top-down traversal.
    ///
    /// Refinement at i reads only same-stem state -- the upstream width walk
    /// terminates at the stem root, wire_below covers same-stem descendants,
    /// and the downstream sink cap is static -- so stems never interact.
    /// When `segments` is a union of whole stems and every *unlisted* stem
    /// already sits at its GREWSA fixpoint, the assignment this reaches is
    /// bit-identical to a full grewsa() run from the correspondingly seeded
    /// start: the per-stem refinement sequence is exactly the projection of
    /// the global ascending sweep.  This is the warm-start primitive of the
    /// session ECO engine (session/session.h).  Returns the number of width
    /// changes applied.
    std::int64_t sweep_to_fixpoint(const std::vector<std::size_t>& segments,
                                   int max_idx);

private:
    /// Sigma over ancestors of l_a / w_a, by walking the root path.
    double upstream_length_over_width(std::size_t i) const;
    void rebuild();

    const WiresizeContext* ctx_ = nullptr;
    Assignment a_;
    std::vector<double> wire_below_;
    double delay_ = 0.0;
};

}  // namespace cong93

#endif  // CONG93_WIRESIZE_INCREMENTAL_H
