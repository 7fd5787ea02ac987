#include "session/session.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "wiresize/combined.h"
#include "workload/net_source.h"
#include "workload/stream.h"

namespace cong93 {

namespace {

/// FNV-1a step over a whole 64-bit word.  The stem hash only buckets
/// stems; the exact content compare decides every match, so a word-wise mix
/// (one multiply per word, not eight) is as correct and far cheaper.
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 1099511628211ull;
}

std::uint64_t dbl_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Stem ranges of a context: seg_roots() in discovery order, each stem a
/// contiguous [roots[j], roots[j+1]) index block (the stack-DFS compile
/// discovers each root child's whole subtree before the next root).
/// Returns false when the contiguity invariant does not hold, in which case
/// callers must treat the whole context as dirty.
bool stem_ranges(const WiresizeContext& ctx,
                 std::vector<std::pair<std::size_t, std::size_t>>& out)
{
    out.clear();
    const auto& roots = ctx.seg_roots();
    const std::size_t n = ctx.segment_count();
    if (n == 0) return true;
    if (roots.empty() || roots.front() != 0) return false;
    for (std::size_t j = 0; j < roots.size(); ++j) {
        const std::size_t b = static_cast<std::size_t>(roots[j]);
        const std::size_t e = j + 1 < roots.size()
                                  ? static_cast<std::size_t>(roots[j + 1])
                                  : n;
        if (e <= b || e > n) return false;
        // Every non-root segment's parent must precede it inside the block.
        for (std::size_t i = b; i < e; ++i) {
            const std::int32_t p = ctx.seg_parent()[i];
            if (i == b) {
                if (p != kNoSegment) return false;
            } else if (p < static_cast<std::int32_t>(b) ||
                       p >= static_cast<std::int32_t>(i)) {
                return false;
            }
        }
        out.emplace_back(b, e);
    }
    return true;
}

/// Exact per-stem content: everything a stem's GREWSA fixpoint depends on
/// besides the (session-constant) width set and technology.  Five words per
/// segment: parent offset inside the block, length bits, downstream sink
/// cap bits, tail cap bits, tail-is-sink.
void stem_content(const WiresizeContext& ctx, std::size_t b, std::size_t e,
                  std::vector<std::uint64_t>& content, std::uint64_t& hash)
{
    content.clear();
    content.reserve((e - b) * 5);
    for (std::size_t i = b; i < e; ++i) {
        const std::int32_t p = ctx.seg_parent()[i];
        content.push_back(p == kNoSegment
                              ? 0
                              : static_cast<std::uint64_t>(p) - b + 1);
        content.push_back(dbl_bits(ctx.seg_length()[i]));
        content.push_back(dbl_bits(ctx.downstream_sink_cap(i)));
        content.push_back(dbl_bits(ctx.tail_cap(i)));
        content.push_back(ctx.tail_is_sink()[i]);
    }
    hash = 14695981039346656037ull;
    hash = fnv_mix(hash, e - b);
    for (const std::uint64_t w : content) hash = fnv_mix(hash, w);
}

}  // namespace

void apply_delta(Net& net, Technology& tech, const EcoDelta& delta)
{
    switch (delta.kind) {
    case EcoDelta::Kind::move_sink:
        if (delta.sink >= net.sinks.size())
            throw std::invalid_argument("apply_delta: move_sink index out of range");
        net.sinks[delta.sink] = delta.position;
        break;
    case EcoDelta::Kind::add_sink:
        // Keep sink_caps aligned: once any explicit cap exists, every sink
        // needs a slot (Net::sink_cap defaults missing tails to -1).
        if (!net.sink_caps.empty() || delta.cap != -1.0) {
            net.sink_caps.resize(net.sinks.size(), -1.0);
            net.sink_caps.push_back(delta.cap);
        }
        net.sinks.push_back(delta.position);
        break;
    case EcoDelta::Kind::remove_sink:
        if (delta.sink >= net.sinks.size())
            throw std::invalid_argument("apply_delta: remove_sink index out of range");
        net.sinks.erase(net.sinks.begin() +
                        static_cast<std::ptrdiff_t>(delta.sink));
        if (delta.sink < net.sink_caps.size())
            net.sink_caps.erase(net.sink_caps.begin() +
                                static_cast<std::ptrdiff_t>(delta.sink));
        break;
    case EcoDelta::Kind::retech:
        tech = delta.tech;
        break;
    }
}

Session::Session(Technology tech, SessionOptions opts)
    : opts_(std::move(opts)),
      tech_(std::move(tech)),
      faults_(opts_.pipeline.faults.enabled ? opts_.pipeline.faults
                                            : FaultPlan::from_env()),
      cache_(opts_.cache_capacity)
{
}

Session::Entry& Session::entry(NetId id)
{
    if (id >= entries_.size())
        throw std::out_of_range("Session: no such net id");
    return entries_[id];
}

const Session::Entry& Session::entry(NetId id) const
{
    if (id >= entries_.size())
        throw std::out_of_range("Session: no such net id");
    return entries_[id];
}

PipelineOptions Session::route_options() const
{
    PipelineOptions p = opts_.pipeline;
    p.faults = faults_;
    p.cache = nullptr;  // per-request paths never consult the batch cache
    // Lifecycle knobs apply to batch admission (add_batch), not to the
    // per-request ECO path: an incremental repair is bit-compared against
    // route_single, an exactness contract wall-deadline pressure would
    // break.  The deterministic virtual clock still applies -- under it
    // fault_would_fire holds for every request, so none keeps state.
    p.deadline_ms = 0.0;
    p.cancel = nullptr;
    p.admit_cap = 0;
    p.memory_budget_bytes = 0;
    return p;
}

bool Session::fault_would_fire(std::uint64_t request) const
{
    if (!faults_.enabled) return false;
    // A virtual deadline clock charges every stage of every request, so
    // whether a net is pressured depends on more than its own faults: no
    // request keeps repair state under it.
    if (faults_.virtual_clock()) return true;
    const std::size_t i = static_cast<std::size_t>(request);
    return faults_.fires(i, RouteStage::topology) ||
           faults_.fires(i, RouteStage::fallback) ||
           faults_.fires(i, RouteStage::compile) ||
           faults_.fires(i, RouteStage::report) ||
           faults_.fires(i, RouteStage::wiresize) ||
           faults_.fires(i, RouteStage::moment_check);
}

void Session::warm_solve(const WiresizeContext& ctx, WiresizeScratch& s,
                         const std::vector<StemBounds>& prior,
                         std::vector<StemBounds>& pending)
{
    // Every stem's content, taken once: it keys the warm start below
    // and, with the bounds, becomes the next request's prior.  A
    // non-contiguous context keeps no stems (no reuse, never wrong
    // bits).
    std::vector<std::pair<std::size_t, std::size_t>> stems;
    const bool contiguous = stem_ranges(ctx, stems);
    std::vector<StemBounds> next(contiguous ? stems.size() : 0);
    for (std::size_t j = 0; j < next.size(); ++j)
        stem_content(ctx, stems[j].first, stems[j].second, next[j].content,
                     next[j].hash);
    Assignment& lower = s.best.lower_bounds;
    Assignment& upper = s.best.upper_bounds;
    if (contiguous && !prior.empty()) {
        lower.assign(ctx.segment_count(), 0);
        upper.assign(ctx.segment_count(), ctx.width_count() - 1);
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash;
        for (std::size_t p = 0; p < prior.size(); ++p)
            by_hash[prior[p].hash].push_back(p);
        std::vector<std::size_t> dirty;
        for (std::size_t j = 0; j < stems.size(); ++j) {
            const auto [b, se] = stems[j];
            const StemBounds* match = nullptr;
            const auto it = by_hash.find(next[j].hash);
            if (it != by_hash.end()) {
                for (const std::size_t p : it->second)
                    if (prior[p].content == next[j].content) {
                        match = &prior[p];
                        break;
                    }
            }
            if (match != nullptr) {
                std::copy(match->lower.begin(), match->lower.end(),
                          lower.begin() + static_cast<std::ptrdiff_t>(b));
                std::copy(match->upper.begin(), match->upper.end(),
                          upper.begin() + static_cast<std::ptrdiff_t>(b));
            } else {
                for (std::size_t i = b; i < se; ++i) dirty.push_back(i);
            }
        }
        // Unchanged stems sit at their cached GREWSA fixpoints; sweeping
        // only the dirty stems from all-min / all-max reaches
        // bit-identical global fixpoints (per-stem independence,
        // incremental.h), on the scratch's one engine.
        if (!dirty.empty()) {
            for (Assignment* bound : {&lower, &upper}) {
                s.engine.reset(ctx, *bound);
                s.engine.sweep_to_fixpoint(dirty, ctx.width_count() - 1);
                *bound = s.engine.assignment();
            }
        }
        owsa_within_bounds(ctx, s);
    } else {
        grewsa_owsa(ctx, s);
    }

    for (std::size_t j = 0; j < next.size(); ++j) {
        const auto b = static_cast<std::ptrdiff_t>(stems[j].first);
        const auto se = static_cast<std::ptrdiff_t>(stems[j].second);
        next[j].lower.assign(lower.begin() + b, lower.begin() + se);
        next[j].upper.assign(upper.begin() + b, upper.begin() + se);
    }
    pending = std::move(next);
}

EcoOutcome Session::route(Entry& e, NetId id)
{
    EcoOutcome o;
    o.request = requests_++;
    // A request a fault fires for keeps no state, even when the fault
    // leaves no trace (say, an arena cap above the node count), and so
    // takes no reuse either.
    const bool keep = !fault_would_fire(o.request);
    const bool lent = keep && e.captured;
    std::vector<StemBounds> pending;
    RouteReuse reuse;
    if (keep) {
        if (lent) reuse.atree = &e.rows;
        reuse.solver = [&](const WiresizeContext& ctx, WiresizeScratch& s) {
            warm_solve(ctx, s, e.bounds, pending);
        };
    }
    e.result = route_single(e.net, static_cast<std::size_t>(o.request), 0,
                            e.tech, route_options(), ws_, reuse);
    e.result.diag.net_index = id;
    e.captured = keep && e.result.status == RouteStatus::ok && e.result.diag.empty();
    if (e.captured) {
        // A clean result came off the A-tree rung, so ws_.atree.part is
        // this route's partition: count the quadrants whose sink list
        // differs from the lent rows'.
        o.incremental = lent;
        if (lent)
            for (std::size_t q = 0; q < 4; ++q)
                if (ws_.atree.part.quads[q] != e.rows.part.quads[q])
                    ++o.dirty_quadrants;
        e.rows.capture(ws_.atree, ws_.flat);
        e.bounds = std::move(pending);
    } else {
        e.bounds.clear();
    }
    recount(e);
    return o;
}

std::size_t Session::Entry::heap_bytes() const
{
    std::size_t n = net.sinks.capacity() * sizeof(Point) +
                    net.sink_caps.capacity() * sizeof(double) +
                    result.assignment.values().capacity() * sizeof(int) +
                    rows.capacity_bytes() + bounds.capacity() * sizeof(StemBounds);
    for (const StemBounds& b : bounds)
        n += b.content.capacity() * sizeof(std::uint64_t) +
             (b.lower.capacity() + b.upper.capacity()) * sizeof(int);
    return n;
}

void Session::recount(Entry& e)
{
    const std::size_t now = e.heap_bytes();
    entry_bytes_ = entry_bytes_ - e.bytes + now;
    e.bytes = now;
}

NetId Session::add(Net net)
{
    const NetId id = entries_.size();
    entries_.emplace_back();
    Entry& e = entries_.back();
    e.net = std::move(net);
    e.tech = tech_;
    route(e, id);
    return id;
}

std::vector<NetId> Session::add_batch(const std::vector<Net>& nets,
                                      PipelineStats* stats)
{
    PipelineOptions popts = opts_.pipeline;
    popts.faults = faults_;
    popts.cache = opts_.use_cache ? &cache() : nullptr;
    PipelineStats local;
    std::vector<NetRouteResult> results =
        route_batch(nets, tech_, popts, stats != nullptr ? stats : &local);

    std::vector<NetId> ids;
    ids.reserve(nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const NetId id = entries_.size();
        entries_.emplace_back();
        Entry& e = entries_.back();
        e.net = nets[i];
        e.tech = tech_;
        e.result = std::move(results[i]);
        e.result.diag.net_index = id;
        e.captured = false;  // repair state materializes on first apply()
        recount(e);
        ids.push_back(id);
    }
    return ids;
}

std::vector<NetId> Session::add_batch(NetSource& source, std::size_t chunk_nets,
                                      PipelineStats* stats)
{
    return admit_chunks(source, chunk_nets, stats,
                        [this](const std::vector<Net>& nets, PipelineStats* cs) {
                            return add_batch(nets, cs);
                        });
}

EcoOutcome Session::apply(NetId id, const EcoDelta& delta)
{
    Entry& e = entry(id);
    apply_delta(e.net, e.tech, delta);
    // Topology is technology-independent, so a retech replays every
    // quadrant, but the cached stem bounds are tech-specific and must not
    // seed the new solve.
    if (delta.kind == EcoDelta::Kind::retech) e.bounds.clear();
    EcoOutcome o = route(e, id);
    o.result = e.result;
    return o;
}

}  // namespace cong93
