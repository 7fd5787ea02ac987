#include "designs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "atree/generalized.h"

namespace e2e {

using namespace cong93;

namespace {

/// Share of ECO episodes that go to lopsided nets (full re-routes).
constexpr double kLopsidedShare = 0.15;

/// Sink-count range of the eco_service nets.
constexpr int kEcoMinSinks = 8;
constexpr int kEcoMaxSinks = 32;

std::uint64_t key_of(Point p)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 32) |
           static_cast<std::uint32_t>(p.y);
}

Coord clamp_coord(std::int64_t v, Coord grid)
{
    return static_cast<Coord>(std::clamp<std::int64_t>(v, 0, grid));
}

/// A position near `from` (within +-100 on each axis, inside the grid) that
/// coincides with no terminal of `net`; false when none was found.
bool free_spot_near(const Net& net, Point from, Coord grid, Rng& rng, Point& out)
{
    for (int attempt = 0; attempt < 16; ++attempt) {
        const Point p{clamp_coord(from.x + rng.range(-100, 100), grid),
                      clamp_coord(from.y + rng.range(-100, 100), grid)};
        if (p == from || p == net.source) continue;
        if (std::find(net.sinks.begin(), net.sinks.end(), p) != net.sinks.end())
            continue;
        out = p;
        return true;
    }
    return false;
}

/// Share of the net's sinks in its most populated source quadrant, as
/// partition_quadrants assigns them.
double max_quadrant_share(const Net& net)
{
    const QuadrantPartition part = partition_quadrants(net);
    std::size_t most = 0;
    for (const auto& q : part.quads) most = std::max(most, q.size());
    return static_cast<double>(most) / static_cast<double>(net.sinks.size());
}

/// Indices of the sinks strictly inside the net's most populated quadrant.
std::vector<std::size_t> largest_quadrant_sinks(const Net& net)
{
    static constexpr std::array<std::pair<int, int>, 4> kSign{
        {{1, 1}, {-1, 1}, {-1, -1}, {1, -1}}};
    std::array<std::vector<std::size_t>, 4> by_quad;
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        const std::int64_t dx = net.sinks[i].x - net.source.x;
        const std::int64_t dy = net.sinks[i].y - net.source.y;
        for (std::size_t q = 0; q < 4; ++q)
            if (dx * kSign[q].first > 0 && dy * kSign[q].second > 0) by_quad[q].push_back(i);
    }
    std::size_t best = 0;
    for (std::size_t q = 1; q < 4; ++q)
        if (by_quad[q].size() > by_quad[best].size()) best = q;
    return by_quad[best];
}

/// Up to `count` nets of `pool`, ordered as traffic ranks: rank r takes the
/// unused net whose sink count is nearest kEcoMinSinks + frac(0.5 + 0.618 r)
/// * (kEcoMaxSinks - kEcoMinSinks).  Every seed thus puts the same sink
/// counts at the same ranks, so the skewed traffic does not hinge on the
/// sizes a seed's pool happens to hold.
std::vector<NetId> pick_by_size_profile(const std::vector<WorkItem>& region,
                                        const std::vector<NetId>& pool, std::size_t count)
{
    std::vector<char> used(pool.size(), 0);
    std::vector<NetId> out;
    for (std::size_t r = 0; r < std::min(count, pool.size()); ++r) {
        const double q = std::fmod(0.5 + 0.6180339887498949 * static_cast<double>(r), 1.0);
        const double target = kEcoMinSinks + q * (kEcoMaxSinks - kEcoMinSinks);
        std::size_t best = pool.size();
        double best_gap = 0.0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (used[i]) continue;
            const double gap =
                std::abs(static_cast<double>(region[pool[i]].net.sinks.size()) - target);
            if (best == pool.size() || gap < best_gap) {
                best = i;
                best_gap = gap;
            }
        }
        used[best] = 1;
        out.push_back(pool[best]);
    }
    return out;
}

}  // namespace

Net make_net(Rng& rng, int sinks, Point origin, Coord window)
{
    Net net;
    std::unordered_set<std::uint64_t> used;
    const auto draw = [&] {
        for (;;) {
            const Point p{static_cast<Coord>(origin.x + rng.range(0, window)),
                          static_cast<Coord>(origin.y + rng.range(0, window))};
            if (used.insert(key_of(p)).second) return p;
        }
    };
    net.source = draw();
    net.sinks.reserve(static_cast<std::size_t>(sinks));
    for (int i = 0; i < sinks; ++i) net.sinks.push_back(draw());
    return net;
}

std::vector<WorkItem> make_design(const DesignSpec& spec, Rng& rng)
{
    std::vector<WorkItem> items(spec.nets);
    for (WorkItem& item : items) {
        const int sinks = rng.unit() < spec.small_share
                              ? static_cast<int>(rng.range(spec.min_sinks, spec.small_max))
                              : static_cast<int>(rng.range(spec.small_max + 1, spec.max_sinks));
        const Coord window = std::min<Coord>(
            spec.grid, static_cast<Coord>(rng.range(spec.min_window, spec.max_window)));
        const Point origin{static_cast<Coord>(rng.range(0, spec.grid - window)),
                           static_cast<Coord>(rng.range(0, spec.grid - window))};
        item.net = make_net(rng, sinks, origin, window);
        // A third of the nets carry a timing constraint, so the chip roll-up
        // computes slacks as well as totals.
        if (rng.unit() < 1.0 / 3.0) {
            item.meta.required_arrival_s = 0.5e-9 + 4e-9 * rng.unit();
            item.meta.criticality = static_cast<double>(rng.range(1, 4));
        }
    }
    return items;
}

std::string design_summary(const std::vector<WorkItem>& items)
{
    static constexpr std::array<int, 7> kEdges{2, 5, 7, 17, 33, 65, 129};
    std::array<std::size_t, 6> hist{};
    std::size_t sinks = 0, constrained = 0;
    for (const WorkItem& item : items) {
        const int n = static_cast<int>(item.net.sinks.size());
        sinks += item.net.sinks.size();
        if (item.meta.required_arrival_s >= 0.0) ++constrained;
        for (std::size_t b = 0; b + 1 < kEdges.size(); ++b)
            if (n >= kEdges[b] && n < kEdges[b + 1]) ++hist[b];
    }
    Json h;
    for (std::size_t b = 0; b + 1 < kEdges.size(); ++b)
        h.integer(std::to_string(kEdges[b]) + "-" + std::to_string(kEdges[b + 1] - 1),
                  hist[b]);
    Json o;
    o.integer("nets", items.size())
        .num("mean_sinks", items.empty() ? 0.0
                                         : static_cast<double>(sinks) /
                                               static_cast<double>(items.size()))
        .raw("sink_histogram", h.done())
        .integer("constrained_nets", constrained);
    return o.done();
}

EcoDesign make_eco_design(int sessions, std::size_t nets_per_region, Rng& rng)
{
    constexpr Coord kGrid = 4000;
    EcoDesign d;
    std::vector<Net> library(256);
    for (Net& n : library) {
        const Coord window = static_cast<Coord>(rng.range(300, 1200));
        n = make_net(rng, static_cast<int>(rng.range(kEcoMinSinks, kEcoMaxSinks)), Point{0, 0},
                     window);
    }
    d.library_nets = library.size();
    d.regions.resize(static_cast<std::size_t>(sessions));
    for (auto& region : d.regions) {
        region.resize(nets_per_region);
        for (WorkItem& item : region) {
            if (rng.unit() < 0.5) {
                const Net& lib = library[static_cast<std::size_t>(
                    rng.range(0, static_cast<std::int64_t>(library.size()) - 1))];
                Coord max_x = lib.source.x, max_y = lib.source.y;
                for (const Point p : lib.sinks) {
                    max_x = std::max(max_x, p.x);
                    max_y = std::max(max_y, p.y);
                }
                const Coord dx = static_cast<Coord>(rng.range(0, kGrid - max_x));
                const Coord dy = static_cast<Coord>(rng.range(0, kGrid - max_y));
                item.net = lib;
                item.net.source = Point{static_cast<Coord>(lib.source.x + dx),
                                        static_cast<Coord>(lib.source.y + dy)};
                for (Point& p : item.net.sinks)
                    p = Point{static_cast<Coord>(p.x + dx), static_cast<Coord>(p.y + dy)};
                ++d.copies;
            } else {
                const Coord window = static_cast<Coord>(rng.range(300, 1200));
                const Point origin{static_cast<Coord>(rng.range(0, kGrid - window)),
                                   static_cast<Coord>(rng.range(0, kGrid - window))};
                item.net = make_net(
                    rng, static_cast<int>(rng.range(kEcoMinSinks, kEcoMaxSinks)), origin, window);
            }
        }
    }
    return d;
}

EcoScript make_eco_script(const std::vector<WorkItem>& region,
                          const Technology& base, const Technology& alt,
                          std::size_t length, std::size_t hot,
                          std::size_t sample_every, Rng& rng)
{
    constexpr Coord kGrid = 4000;
    EcoScript s;

    // The hot set: a deterministic sample of the region in two classes.
    // A balanced net (no quadrant holds more than 40% of its sinks) is
    // repaired incrementally: an edit dirties about a quarter of its sinks.
    // A lopsided net (one quadrant holds at least 60%) is re-routed in full
    // when an edit touches that quadrant, since the dirty share then exceeds
    // the session's 0.5 threshold.  Episodes pick the lopsided class with a
    // fixed probability, which fixes the incremental share of the requests
    // well away from the point where p50 or p99 would straddle the two modes.
    std::vector<NetId> ids(region.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[static_cast<std::size_t>(
                                  rng.range(0, static_cast<std::int64_t>(i) - 1))]);
    std::vector<NetId> balanced_pool, lopsided_pool;
    for (const NetId id : ids) {
        const double share = max_quadrant_share(region[id].net);
        if (share <= 0.4) balanced_pool.push_back(id);
        if (share >= 0.6) lopsided_pool.push_back(id);
    }
    require(!balanced_pool.empty() && !lopsided_pool.empty(),
            "ECO region lacks balanced or lopsided nets");
    const std::vector<NetId> balanced =
        pick_by_size_profile(region, balanced_pool, hot - hot / 4);
    const std::vector<NetId> lopsided = pick_by_size_profile(region, lopsided_pool, hot / 4);
    s.hot_nets = balanced.size() + lopsided.size();

    const auto emit = [&](NetId id, const EcoDelta& delta, Net& net, Technology& t) {
        apply_delta(net, t, delta);
        s.reqs.push_back({id, delta});
        ++s.kinds[static_cast<std::size_t>(delta.kind)];
        if ((s.reqs.size() - 1) % sample_every == 0) {
            s.sample_pos.push_back(s.reqs.size() - 1);
            s.sample_net.push_back(net);
            s.sample_tech.push_back(t);
        }
    };

    while (s.reqs.size() < length) {
        const bool full = rng.unit() < kLopsidedShare;
        const std::vector<NetId>& cls = full ? lopsided : balanced;
        const double u = rng.unit();  // quadratic skew: a few nets run hot
        const NetId id = cls[static_cast<std::size_t>(u * u * static_cast<double>(cls.size()))];
        Net net = region[id].net;
        Technology t = base;
        const int k = 1 + (rng.unit() < 0.35 ? 1 : 0) + (rng.unit() < 0.1 ? 1 : 0);
        std::vector<EcoDelta> undo;
        for (int j = 0; j < k; ++j) {
            const double roll = rng.unit();
            const std::size_t n = net.sinks.size();
            Point p;
            if (full) {
                // Edit a sink of the crowded quadrant: move it, or add one
                // beside it.
                const std::vector<std::size_t> crowded = largest_quadrant_sinks(net);
                if (crowded.empty()) break;
                const std::size_t i = crowded[static_cast<std::size_t>(
                    rng.range(0, static_cast<std::int64_t>(crowded.size()) - 1))];
                const Point old = net.sinks[i];
                if (!free_spot_near(net, old, kGrid, rng, p)) continue;
                if (roll < 0.15) {
                    emit(id, EcoDelta::make_add(p), net, t);
                    undo.push_back(EcoDelta::make_remove(n));
                } else {
                    emit(id, EcoDelta::make_move(i, p), net, t);
                    undo.push_back(EcoDelta::make_move(i, old));
                }
            } else if (roll < 0.04 && undo.empty()) {
                emit(id, EcoDelta::make_retech(alt), net, t);
                undo.push_back(EcoDelta::make_retech(base));
            } else if (roll < 0.12 && n > 2) {
                const Point old = net.sinks.back();
                const double cap = net.sink_cap(n - 1);
                emit(id, EcoDelta::make_remove(n - 1), net, t);
                undo.push_back(EcoDelta::make_add(old, cap));
            } else if (roll < 0.20) {
                const Point near = net.sinks[static_cast<std::size_t>(
                    rng.range(0, static_cast<std::int64_t>(n) - 1))];
                if (!free_spot_near(net, near, kGrid, rng, p)) continue;
                emit(id, EcoDelta::make_add(p), net, t);
                undo.push_back(EcoDelta::make_remove(n));
            } else {
                const auto i = static_cast<std::size_t>(
                    rng.range(0, static_cast<std::int64_t>(n) - 1));
                const Point old = net.sinks[i];
                if (!free_spot_near(net, old, kGrid, rng, p)) continue;
                emit(id, EcoDelta::make_move(i, p), net, t);
                undo.push_back(EcoDelta::make_move(i, old));
            }
        }
        for (auto it = undo.rbegin(); it != undo.rend(); ++it) emit(id, *it, net, t);
    }
    return s;
}

}  // namespace e2e
