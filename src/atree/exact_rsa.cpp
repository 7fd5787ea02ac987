#include "atree/exact_rsa.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geom/hanan.h"
#include "rtree/metrics.h"

namespace cong93 {

namespace {

constexpr Length kInf = std::numeric_limits<Length>::max() / 4;

struct Dp {
    // Terminals (sinks) bitmask DP over Hanan grid points.
    std::vector<Point> pts;              // Hanan points, source-relative
    std::vector<int> sink_point;         // sink index -> point index
    RsaCost mode;

    // cost[v][S], decision encoding per (v,S):
    //   kind 0: base (single sink, direct path)
    //   kind 1: split into (S', S\S') at v    (arg = S')
    //   kind 2: step to point u               (arg = u)
    std::vector<std::vector<Length>> cost;
    std::vector<std::vector<int>> kind;
    std::vector<std::vector<int>> arg;

    Length path_cost(Point v, Point u) const
    {
        const Length d = dist(v, u);
        if (mode == RsaCost::wirelength) return d;
        return d * dist_origin(v) + d * (d + 1) / 2;
    }
};

}  // namespace

ExactRsaResult exact_rsa(const Net& net, RsaCost mode)
{
    if (net.sinks.size() > 16)
        throw std::invalid_argument("exact_rsa: too many sinks for exact DP");

    // Source-relative, deduplicated sinks.
    std::vector<Point> sinks;
    for (const Point s : net.sinks) {
        const Point d{static_cast<Coord>(s.x - net.source.x),
                      static_cast<Coord>(s.y - net.source.y)};
        if (d.x < 0 || d.y < 0)
            throw std::invalid_argument("exact_rsa: net is not first-quadrant");
        if (d.x == 0 && d.y == 0) continue;
        if (std::find(sinks.begin(), sinks.end(), d) == sinks.end()) sinks.push_back(d);
    }

    if (sinks.empty()) {
        RoutingTree t(net.source);
        for (const Point s : net.sinks)
            if (s == net.source) t.mark_sink(t.root());
        return {t, 0};
    }

    Dp dp;
    dp.mode = mode;
    std::vector<Point> terms = sinks;
    terms.push_back(Point{0, 0});
    dp.pts = hanan_grid(terms);
    const int np = static_cast<int>(dp.pts.size());
    const int ns = static_cast<int>(sinks.size());
    const int full = (1 << ns) - 1;

    const auto point_index = [&](Point p) {
        for (int i = 0; i < np; ++i)
            if (dp.pts[static_cast<std::size_t>(i)] == p) return i;
        throw std::logic_error("exact_rsa: point not on Hanan grid");
    };
    for (const Point s : sinks) dp.sink_point.push_back(point_index(s));
    const int origin_idx = point_index(Point{0, 0});

    // Process points in decreasing dist_origin so that step transitions
    // (v -> dominating u) reference already-final values for the same S.
    std::vector<int> order(static_cast<std::size_t>(np));
    for (int i = 0; i < np; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return dist_origin(dp.pts[static_cast<std::size_t>(a)]) >
               dist_origin(dp.pts[static_cast<std::size_t>(b)]);
    });

    dp.cost.assign(static_cast<std::size_t>(np),
                   std::vector<Length>(static_cast<std::size_t>(full + 1), kInf));
    dp.kind.assign(static_cast<std::size_t>(np),
                   std::vector<int>(static_cast<std::size_t>(full + 1), -1));
    dp.arg.assign(static_cast<std::size_t>(np),
                  std::vector<int>(static_cast<std::size_t>(full + 1), -1));

    for (int S = 1; S <= full; ++S) {
        const bool single = (S & (S - 1)) == 0;
        for (const int vi : order) {
            const Point v = dp.pts[static_cast<std::size_t>(vi)];
            Length best = kInf;
            int bkind = -1, barg = -1;
            if (single) {
                int t = 0;
                while (!(S & (1 << t))) ++t;
                const Point u = dp.pts[static_cast<std::size_t>(dp.sink_point[static_cast<std::size_t>(t)])];
                if (dominates(u, v)) {
                    best = dp.path_cost(v, u);
                    bkind = 0;
                }
            } else {
                // Splits at v (enumerate S' containing the lowest set bit to
                // avoid symmetric duplicates).
                const int low = S & -S;
                for (int sub = (S - 1) & S; sub; sub = (sub - 1) & S) {
                    if (!(sub & low)) continue;
                    const Length a = dp.cost[static_cast<std::size_t>(vi)][static_cast<std::size_t>(sub)];
                    const Length b = dp.cost[static_cast<std::size_t>(vi)][static_cast<std::size_t>(S ^ sub)];
                    if (a >= kInf || b >= kInf) continue;
                    if (a + b < best) {
                        best = a + b;
                        bkind = 1;
                        barg = sub;
                    }
                }
            }
            // Step to a strictly dominating point u.
            for (int ui = 0; ui < np; ++ui) {
                if (ui == vi) continue;
                const Point u = dp.pts[static_cast<std::size_t>(ui)];
                if (!dominates(u, v) || u == v) continue;
                const Length c = dp.cost[static_cast<std::size_t>(ui)][static_cast<std::size_t>(S)];
                if (c >= kInf) continue;
                const Length total = c + dp.path_cost(v, u);
                if (total < best) {
                    best = total;
                    bkind = 2;
                    barg = ui;
                }
            }
            dp.cost[static_cast<std::size_t>(vi)][static_cast<std::size_t>(S)] = best;
            dp.kind[static_cast<std::size_t>(vi)][static_cast<std::size_t>(S)] = bkind;
            dp.arg[static_cast<std::size_t>(vi)][static_cast<std::size_t>(S)] = barg;
        }
    }

    const Length opt = dp.cost[static_cast<std::size_t>(origin_idx)][static_cast<std::size_t>(full)];
    if (opt >= kInf) throw std::logic_error("exact_rsa: no solution found");

    // Reconstruct as (points, parent) lists; tree_from_parent_map handles the
    // L-embedding of each monotone step.
    std::vector<Point> out_pts{net.source};
    std::vector<int> out_parent{-1};
    struct Frame {
        int v;
        int S;
        int out_idx;  // node index of v in the output lists
    };
    std::vector<Frame> stack{{origin_idx, full, 0}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        const int k = dp.kind[static_cast<std::size_t>(f.v)][static_cast<std::size_t>(f.S)];
        const int a = dp.arg[static_cast<std::size_t>(f.v)][static_cast<std::size_t>(f.S)];
        if (k == 0) {
            int t = 0;
            while (!(f.S & (1 << t))) ++t;
            const int ui = dp.sink_point[static_cast<std::size_t>(t)];
            if (ui != f.v) {
                const Point u = dp.pts[static_cast<std::size_t>(ui)];
                out_pts.push_back(Point{static_cast<Coord>(u.x + net.source.x),
                                        static_cast<Coord>(u.y + net.source.y)});
                out_parent.push_back(f.out_idx);
            }
        } else if (k == 1) {
            stack.push_back({f.v, a, f.out_idx});
            stack.push_back({f.v, f.S ^ a, f.out_idx});
        } else if (k == 2) {
            const Point u = dp.pts[static_cast<std::size_t>(a)];
            out_pts.push_back(Point{static_cast<Coord>(u.x + net.source.x),
                                    static_cast<Coord>(u.y + net.source.y)});
            out_parent.push_back(f.out_idx);
            stack.push_back({a, f.S, static_cast<int>(out_pts.size()) - 1});
        } else {
            throw std::logic_error("exact_rsa: bad reconstruction state");
        }
    }

    ExactRsaResult res{tree_from_parent_map(net, out_pts, out_parent), opt};
    // Sanity: the reconstructed tree must realize the DP cost.
    const FlatTree ft(res.tree);
    const Length realized = mode == RsaCost::wirelength
                                ? total_length(ft)
                                : sum_all_node_path_lengths(ft);
    if (realized != opt) throw std::logic_error("exact_rsa: reconstruction mismatch");
    return res;
}

Length exact_rsa_cost(const Net& net, RsaCost mode)
{
    return exact_rsa(net, mode).cost;
}

}  // namespace cong93
