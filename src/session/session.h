// Incremental routing session: the ECO (engineering-change-order) engine.
//
// A Session owns a set of routed nets and repairs them in place when a
// placer-style caller edits a few sinks, instead of re-running the full
// one-shot pipeline per edit.  The contract is strict: every apply() result
// is bit-identical to route_single() on the mutated net -- the incremental
// path buys latency, never different answers.
//
// How a repair works (Session::apply):
//
//   1. The delta mutates the stored net (move_sink / add_sink / remove_sink
//      / retech).
//   2. A retech drops the net's cached stem bounds (they are
//      technology-specific); sink deltas keep them.
//   3. One route_single call (batch/pipeline.h) routes the mutated net.
//      When the net holds repair state and no fault fires for the request,
//      the call is lent the stored A-tree rows and a warm-started solver
//      through RouteReuse: emit_atree appends every quadrant whose
//      partitioned sink list is unchanged from its stored rows by a linear
//      copy and builds only the dirty ones, and every later stage is the
//      pipeline's own.  A replay is never more work than a rebuild, so
//      there is no full-re-route fork: add() makes the same call, just
//      without rows.  After a clean result the session keeps the rows the
//      call left in its Workspace (AtreeRows::capture).
//   4. Wiresizing warm-starts: the GREWSA lower/upper fixpoints are cached
//      per *stem* (root segment subtree), keyed by the stem's exact content
//      (parent structure, length/cap bit patterns).  Stems whose content is
//      unchanged are seeded at their cached fixpoints; only dirty stems
//      sweep, via IncrementalDelayEngine::sweep_to_fixpoint on the slot
//      scratch's engine (Workspace::wiresize).  Per-stem independence of
//      GREWSA refinement makes the warm fixpoints bit-identical to
//      grewsa_from_min/_from_max, so the subsequent owsa_within_bounds
//      call sees the exact bounds grewsa_owsa would have computed.  Content matching is deliberately structural, not
//      bookkept: the generalized A-tree's coverage pass can mark sinks
//      across quadrant boundaries, and content comparison absorbs any such
//      coupling safely (worst case: a stem is treated as dirty).
//
// Fault taxonomy (PR 4) applies per request: every add()/apply() consumes
// one request index against the session's fault plan; a request any of
// whose stages would fire is routed without reuse and the net's repair
// state is dropped, so degraded results carry the exact diagnostics the
// batch pipeline would emit.  Repair state is kept only after a clean
// result (status ok, no diagnostic) of a request no fault fires for, so a
// net that validate_net annotates (duplicate/coincident sinks) or rejects
// ends without it, and its next request routes without rows.
//
// A Session is single-threaded by design (one Workspace, mutable repair
// state); concurrent use needs one Session per thread.  Batch admission
// (add_batch) routes through route_batch with the session's hash-consed
// RouteCache attached, so duplicate nets are admitted at cache-hit speed;
// their repair state materializes lazily on first apply().
#ifndef CONG93_SESSION_SESSION_H
#define CONG93_SESSION_SESSION_H

#include <cstdint>
#include <vector>

#include "atree/generalized.h"
#include "batch/pipeline.h"
#include "session/route_cache.h"

namespace cong93 {

class NetSource;  // workload/net_source.h

/// Handle to a net owned by a Session (dense, 0-based admission order).
using NetId = std::size_t;

/// One ECO edit against a session net.
struct EcoDelta {
    enum class Kind : std::uint8_t { move_sink, add_sink, remove_sink, retech };

    Kind kind = Kind::move_sink;
    std::size_t sink = 0;     ///< move/remove: index into Net::sinks
    Point position{};         ///< move/add: new absolute position
    double cap = -1.0;        ///< add: sink load cap (-1 = technology default)
    Technology tech;          ///< retech: replacement technology

    static EcoDelta make_move(std::size_t sink, Point position)
    {
        EcoDelta d;
        d.kind = Kind::move_sink;
        d.sink = sink;
        d.position = position;
        return d;
    }
    static EcoDelta make_add(Point position, double cap = -1.0)
    {
        EcoDelta d;
        d.kind = Kind::add_sink;
        d.position = position;
        d.cap = cap;
        return d;
    }
    static EcoDelta make_remove(std::size_t sink)
    {
        EcoDelta d;
        d.kind = Kind::remove_sink;
        d.sink = sink;
        return d;
    }
    static EcoDelta make_retech(Technology tech)
    {
        EcoDelta d;
        d.kind = Kind::retech;
        d.tech = std::move(tech);
        return d;
    }
};

/// What one apply() did, besides producing the result.
struct EcoOutcome {
    /// The repaired net's result; bit-identical to route_single() of the
    /// mutated net under the session options.
    NetRouteResult result;
    /// True when the route was lent the net's stored A-tree rows and its
    /// result came out clean (an incremental repair); false for a net
    /// without repair state, a faulted request, or a degraded, annotated
    /// or invalid result.
    bool incremental = false;
    /// Quadrants whose partitioned sink list differs from the stored rows
    /// (rebuilt, or emptied); 0 unless incremental.
    std::size_t dirty_quadrants = 0;
    std::uint64_t request = 0;  ///< fault-plan request index consumed
};

struct SessionOptions {
    /// Pipeline knobs for every route this session performs.  `cache` is
    /// ignored (the session supplies its own), `threads` applies to
    /// add_batch only.  The fault plan resolves once, at construction
    /// (explicit plan, else $CONG93_FAULT_INJECT).
    PipelineOptions pipeline;
    /// Entry capacity of the session's route cache (0 = unbounded).
    std::size_t cache_capacity = 0;
    /// Attach the session's route cache to add_batch admissions (on by
    /// default).  Off admits every net through the ordinary routed path;
    /// results are byte-identical either way (the CI session smoke diffs
    /// the two), only throughput and the cache counters change.
    bool use_cache = true;
    /// Externally owned cache to use instead of the session's private one
    /// (the SessionService attaches its shared cache here).  Not owned; must
    /// outlive the session.  cache_capacity then only sizes the unused
    /// private cache.
    RouteCache* shared_cache = nullptr;
};

class Session {
public:
    explicit Session(Technology tech, SessionOptions opts = {});

    /// Admits one net: full route (route_single) plus eager capture of the
    /// repair state (quadrant rows, stem bounds).
    NetId add(Net net);

    /// Admits a batch through route_batch with the session's route cache
    /// attached; duplicate nets are served by the cache's single-flight
    /// sharing.  Repair state is captured lazily, on each net's first
    /// apply().  `stats` (optional) receives the batch's PipelineStats
    /// including the cache counters.
    std::vector<NetId> add_batch(const std::vector<Net>& nets,
                                 PipelineStats* stats = nullptr);

    /// Admits everything a workload source yields, pulled in
    /// `chunk_nets`-item chunks through the vector overload (0 = one
    /// chunk; admit_chunks, workload/stream.h).  The session retains geometry only -- workload metadata is
    /// a roll-up concern (report/chip_report.h), not repair state; items a
    /// reader rejected admit as their cleared geometry and surface as
    /// invalid_input results.  `stats` sums the chunks' counts
    /// (accumulate_pipeline_stats).
    std::vector<NetId> add_batch(NetSource& source, std::size_t chunk_nets = 0,
                                 PipelineStats* stats = nullptr);

    /// Applies one ECO delta to net `id` and returns the repaired result
    /// (also retained; see result()).  Throws std::out_of_range for a bad
    /// id and std::invalid_argument for a delta that does not type-check
    /// against the net (sink index out of range).
    EcoOutcome apply(NetId id, const EcoDelta& delta);

    std::size_t size() const { return entries_.size(); }
    const Net& net(NetId id) const { return entry(id).net; }
    /// The technology net `id` is currently routed against (the session
    /// technology until a retech delta replaces it).
    const Technology& tech(NetId id) const { return entry(id).tech; }
    /// The net's latest result (admission or last apply).
    const NetRouteResult& result(NetId id) const { return entry(id).result; }
    /// Whether the net currently holds repair state (false right after
    /// add_batch, or after a faulted request or an unclean result).
    bool captured(NetId id) const { return entry(id).captured; }

    /// The cache add_batch consults: the service-shared one when attached,
    /// else the session's private cache.
    RouteCache& cache()
    {
        return opts_.shared_cache != nullptr ? *opts_.shared_cache : cache_;
    }
    const SessionOptions& options() const { return opts_; }

    /// Approximate bytes resident in this session: its workspace arenas
    /// plus every net's state (geometry, result assignment, stored A-tree
    /// rows, stem bounds), all by capacity.  The per-net part is a running
    /// total kept where an entry changes, so the call is O(1).  The
    /// SessionService memory budget sums this over every session plus the
    /// shared cache.
    std::size_t resident_bytes() const
    {
        return ws_.resident_bytes() + entries_.capacity() * sizeof(Entry) +
               entry_bytes_;
    }

private:
    /// Cached GREWSA fixpoint bounds of one stem, keyed by exact content.
    struct StemBounds {
        std::uint64_t hash = 0;
        std::vector<std::uint64_t> content;
        std::vector<int> lower;  ///< grewsa_from_min fixpoint slice
        std::vector<int> upper;  ///< grewsa_from_max fixpoint slice
    };

    struct Entry {
        Net net;
        Technology tech;
        NetRouteResult result;
        bool captured = false;
        // Repair state (valid only when captured):
        AtreeRows rows;
        std::vector<StemBounds> bounds;  ///< empty: wiresizing starts cold
        std::size_t bytes = 0;  ///< heap_bytes() as last counted (recount)

        /// Heap bytes the entry holds beyond sizeof(Entry), by capacity.
        std::size_t heap_bytes() const;
    };

    Entry& entry(NetId id);
    const Entry& entry(NetId id) const;
    PipelineOptions route_options() const;
    bool fault_would_fire(std::uint64_t request) const;
    /// Routes e.net with route_single as the next request.  Unless a fault
    /// fires for it, the call warm-starts wiresizing from e.bounds and, when
    /// the net is captured, is lent e.rows.  Keeps the new rows and bounds
    /// when the result is clean.  The outcome carries no result.
    EcoOutcome route(Entry& e, NetId id);
    /// Folds e's current heap_bytes() into the running entry_bytes_.
    void recount(Entry& e);
    /// The warm-started wiresizing solver (bit-identical to grewsa_owsa),
    /// solving into s.best on the scratch's engine and OWSA buffers: stems
    /// whose content matches a `prior` stem start at its cached fixpoints,
    /// no prior means a cold start, and every stem's new bounds land in
    /// `pending`.
    static void warm_solve(const WiresizeContext& ctx, WiresizeScratch& s,
                           const std::vector<StemBounds>& prior,
                           std::vector<StemBounds>& pending);

    SessionOptions opts_;
    Technology tech_;
    FaultPlan faults_;
    RouteCache cache_;
    Workspace ws_;
    std::vector<Entry> entries_;
    std::size_t entry_bytes_ = 0;  ///< sum of every entry's heap_bytes()
    std::uint64_t requests_ = 0;
};

/// Applies `delta` to `net` (and `tech` for retech) without routing; the
/// exact mutation apply() performs.  Throws std::invalid_argument on a
/// sink index out of range.
void apply_delta(Net& net, Technology& tech, const EcoDelta& delta);

}  // namespace cong93

#endif  // CONG93_SESSION_SESSION_H
