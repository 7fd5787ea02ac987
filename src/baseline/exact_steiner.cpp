#include "baseline/exact_steiner.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geom/hanan.h"
#include "rtree/metrics.h"

namespace cong93 {

namespace {
constexpr Length kInf = std::numeric_limits<Length>::max() / 4;
}

ExactSteinerResult exact_steiner(const Net& net)
{
    if (net.sinks.size() > 14)
        throw std::invalid_argument("exact_steiner: too many sinks for exact DP");

    std::vector<Point> sinks;
    for (const Point s : net.sinks)
        if (s != net.source &&
            std::find(sinks.begin(), sinks.end(), s) == sinks.end())
            sinks.push_back(s);
    if (sinks.empty()) {
        RoutingTree t(net.source);
        for (const Point s : net.sinks)
            if (s == net.source) t.mark_sink(t.root());
        return {t, 0};
    }

    std::vector<Point> terms = sinks;
    terms.push_back(net.source);
    const std::vector<Point> pts = hanan_grid(terms);
    const int np = static_cast<int>(pts.size());
    const int ns = static_cast<int>(sinks.size());
    const int full = (1 << ns) - 1;

    const auto point_index = [&](Point p) {
        for (int i = 0; i < np; ++i)
            if (pts[static_cast<std::size_t>(i)] == p) return i;
        throw std::logic_error("exact_steiner: point off the Hanan grid");
    };
    std::vector<int> sink_idx;
    for (const Point s : sinks) sink_idx.push_back(point_index(s));
    const int src_idx = point_index(net.source);

    // cost[v][S] with decisions: kind 0 = direct to the single sink;
    // kind 1 = go to u (arg1) and split S there into (arg2, S^arg2).
    std::vector<std::vector<Length>> cost(
        static_cast<std::size_t>(np),
        std::vector<Length>(static_cast<std::size_t>(full + 1), kInf));
    std::vector<std::vector<int>> d_u(cost.size(),
                                      std::vector<int>(static_cast<std::size_t>(full + 1), -1));
    std::vector<std::vector<int>> d_split(
        cost.size(), std::vector<int>(static_cast<std::size_t>(full + 1), 0));

    for (int t = 0; t < ns; ++t) {
        const int S = 1 << t;
        for (int v = 0; v < np; ++v)
            cost[static_cast<std::size_t>(v)][static_cast<std::size_t>(S)] =
                dist(pts[static_cast<std::size_t>(v)],
                     pts[static_cast<std::size_t>(sink_idx[static_cast<std::size_t>(t)])]);
    }
    for (int S = 1; S <= full; ++S) {
        if ((S & (S - 1)) == 0) continue;  // singletons done
        // W[u][S]: best split at u (subsets strictly smaller -> final).
        std::vector<Length> w(static_cast<std::size_t>(np), kInf);
        std::vector<int> w_split(static_cast<std::size_t>(np), 0);
        const int low = S & -S;
        for (int u = 0; u < np; ++u) {
            for (int sub = (S - 1) & S; sub; sub = (sub - 1) & S) {
                if (!(sub & low)) continue;
                const Length a = cost[static_cast<std::size_t>(u)][static_cast<std::size_t>(sub)];
                const Length b = cost[static_cast<std::size_t>(u)][static_cast<std::size_t>(S ^ sub)];
                if (a >= kInf || b >= kInf) continue;
                if (a + b < w[static_cast<std::size_t>(u)]) {
                    w[static_cast<std::size_t>(u)] = a + b;
                    w_split[static_cast<std::size_t>(u)] = sub;
                }
            }
        }
        for (int v = 0; v < np; ++v) {
            Length best = kInf;
            int bu = -1;
            for (int u = 0; u < np; ++u) {
                if (w[static_cast<std::size_t>(u)] >= kInf) continue;
                const Length c = dist(pts[static_cast<std::size_t>(v)],
                                      pts[static_cast<std::size_t>(u)]) +
                                 w[static_cast<std::size_t>(u)];
                if (c < best) {
                    best = c;
                    bu = u;
                }
            }
            cost[static_cast<std::size_t>(v)][static_cast<std::size_t>(S)] = best;
            d_u[static_cast<std::size_t>(v)][static_cast<std::size_t>(S)] = bu;
            d_split[static_cast<std::size_t>(v)][static_cast<std::size_t>(S)] =
                bu >= 0 ? w_split[static_cast<std::size_t>(bu)] : 0;
        }
    }

    const Length opt = cost[static_cast<std::size_t>(src_idx)][static_cast<std::size_t>(full)];
    if (opt >= kInf) throw std::logic_error("exact_steiner: DP failed");

    // Reconstruct (points, parent) lists.
    std::vector<Point> out_pts{net.source};
    std::vector<int> out_parent{-1};
    struct Frame {
        int v;
        int S;
        int out_idx;
    };
    std::vector<Frame> stack{{src_idx, full, 0}};
    while (!stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        if ((f.S & (f.S - 1)) == 0) {
            int t = 0;
            while (!(f.S & (1 << t))) ++t;
            const int ti = sink_idx[static_cast<std::size_t>(t)];
            if (ti != f.v) {
                out_pts.push_back(pts[static_cast<std::size_t>(ti)]);
                out_parent.push_back(f.out_idx);
            }
            continue;
        }
        const int u = d_u[static_cast<std::size_t>(f.v)][static_cast<std::size_t>(f.S)];
        const int sub = d_split[static_cast<std::size_t>(f.v)][static_cast<std::size_t>(f.S)];
        int u_out = f.out_idx;
        if (u != f.v) {
            out_pts.push_back(pts[static_cast<std::size_t>(u)]);
            out_parent.push_back(f.out_idx);
            u_out = static_cast<int>(out_pts.size()) - 1;
        }
        stack.push_back({u, sub, u_out});
        stack.push_back({u, f.S ^ sub, u_out});
    }

    ExactSteinerResult res{tree_from_parent_map(net, out_pts, out_parent), opt};
    if (total_length(FlatTree(res.tree)) != opt)
        throw std::logic_error("exact_steiner: reconstruction mismatch");
    return res;
}

Length exact_steiner_cost(const Net& net)
{
    return exact_steiner(net).cost;
}

}  // namespace cong93
