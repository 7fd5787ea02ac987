#include "compose.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "atree/atree.h"
#include "common.h"
#include "rtree/validate.h"
#include "sim/moments.h"
#include "sim/rc_tree.h"
#include "wiresize/combined.h"

namespace e2e {

using namespace cong93;

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_tree(const RoutingTree& a, const RoutingTree& b)
{
    if (a.node_count() != b.node_count()) return false;
    for (std::size_t i = 0; i < a.node_count(); ++i) {
        const auto& x = a.node(static_cast<NodeId>(i));
        const auto& y = b.node(static_cast<NodeId>(i));
        if (x.p != y.p || x.parent != y.parent || x.children != y.children ||
            x.is_sink != y.is_sink || x.segment_boundary != y.segment_boundary ||
            !same_bits(x.sink_cap_f, y.sink_cap_f) || x.pl != y.pl)
            return false;
    }
    return true;
}

bool same_atree(const AtreeResult& a, const AtreeResult& b)
{
    return same_tree(a.tree, b.tree) && a.safe_moves == b.safe_moves &&
           a.heuristic_moves == b.heuristic_moves && a.cost == b.cost &&
           a.sb_total == b.sb_total && a.qmst_cost == b.qmst_cost &&
           a.sb_qmst_total == b.sb_qmst_total;
}

}  // namespace

NetRouteResult compose_net(const Net& raw, std::size_t index,
                           std::uint64_t diag_seed, const Technology& tech,
                           const PipelineOptions& opts, Workspace& ws,
                           Tracer* tr, ComposeCounts& counts,
                           QuadrantState* state, bool rebuild_all)
{
    NetRouteResult r;
    r.diag.net_index = index;
    r.diag.net_seed = diag_seed;
    std::optional<AtreeResult> assembled;
    NetValidation v;
    try {
        Tracer::Scope net_span(tr, "net", index);
        {
            Tracer::Scope s(tr, "rtree.validate", index);
            v = validate_net(raw);
        }
        require(v.ok, "composition: net " + std::to_string(index) +
                          " rejected by validate_net: " + v.error);
        for (std::string& note : v.notes)
            r.diag.note(RouteStage::validate, std::move(note));
        {
            Tracer::Scope s(tr, "atree", index);
            QuadrantPartition part;
            {
                Tracer::Scope p(tr, "atree.partition", index);
                part = partition_quadrants(v.net);
            }
            QuadrantState local;
            QuadrantState& st = state != nullptr ? *state : local;
            const bool reuse = st.valid && !rebuild_all;
            std::array<const AtreeResult*, 4> ptrs{nullptr, nullptr, nullptr,
                                                   nullptr};
            for (std::size_t q = 0; q < 4; ++q) {
                if (reuse && part.quads[q] == st.part.quads[q]) {
                    if (st.quads[q]) ptrs[q] = &*st.quads[q];
                    continue;
                }
                st.quads[q].reset();
                if (part.quads[q].empty()) continue;
                Tracer::Scope b(tr, "atree.quadrant", index);
                st.quads[q] = build_atree(quadrant_subnet(part, static_cast<int>(q)));
                ptrs[q] = &*st.quads[q];
                counts.heuristic_moves +=
                    static_cast<std::uint64_t>(st.quads[q]->heuristic_moves);
                ++counts.quadrants_built;
            }
            {
                Tracer::Scope a(tr, "atree.assemble", index);
                assembled = assemble_quadrants(v.net, part, ptrs);
            }
            st.part = std::move(part);
            st.valid = true;
        }
        {
            Tracer::Scope s(tr, "rtree.compile", index);
            ws.flat.build(assembled->tree);
        }
        {
            Tracer::Scope s(tr, "delay.report", index);
            require(route_report_compiled(ws.flat, assembled->tree.node_count(),
                                          tech, ws, r),
                    "composition: report stage demoted net " +
                        std::to_string(index));
        }
        std::optional<WiresizeContext> ctx;
        {
            Tracer::Scope s(tr, "wiresize", index);
            ctx.emplace(ws.flat, tech, WidthSet::uniform_steps(opts.widths_r));
            r.segments = ctx->segment_count();
            if (ctx->segment_count() > 0) {
                CombinedResult best = grewsa_owsa(*ctx);
                require(std::isfinite(best.delay),
                        "composition: non-finite wiresized delay");
                r.wiresized_delay_s = best.delay;
                r.assignment = std::move(best.assignment);
                ++counts.wiresized;
                counts.owsa_assignments +=
                    static_cast<std::uint64_t>(best.assignments_examined);
                counts.tight_bounds += best.bounds_tight ? 1 : 0;
            }
        }
        if (ctx->segment_count() > 0 && opts.moment_check) {
            Tracer::Scope s(tr, "sim.moment", index);
            const RcTree rc = RcTree::from_wiresized_flat(
                *ctx, r.assignment, opts.rc_sections_per_edge);
            const auto& m = compute_moments(rc, 1, ws.moments);
            double worst_m = 0.0;
            for (const int sink : rc.sink_nodes())
                worst_m = std::max(worst_m, -m[0][static_cast<std::size_t>(sink)]);
            require(std::isfinite(worst_m),
                    "composition: non-finite moment delay");
            r.moment_elmore_max_s = worst_m;
        }
    } catch (const GateFailure&) {
        throw;
    } catch (const std::exception& e) {
        throw GateFailure("composition: net " + std::to_string(index) +
                          " threw: " + e.what());
    }
    ++counts.nets;

    // The split A-tree phases must reproduce the one-call construction.
    require(same_atree(*assembled, build_atree_general(v.net)),
            "identity: split A-tree phases differ from build_atree_general "
            "on net " + std::to_string(index));
    return r;
}

}  // namespace e2e
