#include "layers.h"

#include <istream>

#include "alloc.h"
#include "session/service.h"
#include "workload/netlist.h"

namespace e2e {

using namespace cong93;

PipelineOptions pool_options(ThreadPool* pool, int threads)
{
    PipelineOptions p;
    p.threads = threads;
    p.pool = pool;
    return p;
}

BatchLayer measure_batch_layer(const std::vector<Net>& nets, const Technology& tech,
                               ThreadPool& pool, double budget_s)
{
    BatchLayer b;
    const auto n = static_cast<double>(nets.size());

    PipelineOptions one;
    one.threads = 1;
    std::vector<Workspace> ws1;
    PipelineStats stats;
    b.results_1t = route_batch(nets, tech, one, &stats, &ws1);  // warm-up
    std::vector<double> rates;
    const double end_1t = now_s() + budget_s;
    while (rates.size() < 2 || now_s() < end_1t) {
        const double t0 = now_s();
        b.results_1t = route_batch(nets, tech, one, &stats, &ws1);
        rates.push_back(n / (now_s() - t0));
    }
    b.nets_per_s_1t = quantile(rates, 0.5);
    b.rounds_1t = rates.size();

    set_alloc_counting(true);
    const std::uint64_t a0 = thread_allocs();
    route_batch(nets, tech, one, &stats, &ws1);
    b.allocs_per_net = static_cast<double>(thread_allocs() - a0) / n;
    set_alloc_counting(false);
    b.lane_occupancy = stats.counters.lane_occupancy();

    const PipelineOptions wide = pool_options(&pool, pool.thread_count());
    std::vector<Workspace> wsn;
    std::vector<NetRouteResult> results_nt = route_batch(nets, tech, wide, nullptr, &wsn);
    rates.clear();
    const double end_nt = now_s() + budget_s / 2.0;
    while (rates.size() < 2 || now_s() < end_nt) {
        const double t0 = now_s();
        results_nt = route_batch(nets, tech, wide, nullptr, &wsn);
        rates.push_back(n / (now_s() - t0));
    }
    b.nets_per_s_nt = quantile(rates, 0.5);
    b.rounds_nt = rates.size();
    require(format_results(results_nt) == format_results(b.results_1t),
            "identity: route_batch digests differ between 1 and " +
                std::to_string(pool.thread_count()) + " threads");
    return b;
}

void add_batch_metrics(RunResult& out, const BatchLayer& b, int threads)
{
    out.add("batch.allocs_per_net", "count", b.allocs_per_net);
    out.add("batch.nets_per_s_1t", "1/s", b.nets_per_s_1t);
    out.add("batch.scaling_eff", "share",
            b.nets_per_s_nt / (b.nets_per_s_1t * static_cast<double>(threads)));
    out.add("batch.lane_occupancy", "share", b.lane_occupancy);
}

ComposedDesign compose_design(const std::vector<WorkItem>& items, const Technology& tech,
                              std::size_t block, Tracer& tr, ComposeCounts& counts)
{
    ComposedDesign d;
    d.results.resize(items.size());
    PipelineOptions one;
    one.threads = 1;
    std::vector<Workspace> batch_ws;
    Workspace ws;
    std::vector<Net> nets;
    for (std::size_t first = 0; first < items.size(); first += block) {
        const std::size_t last = std::min(items.size(), first + block);
        nets.clear();
        for (std::size_t i = first; i < last; ++i) nets.push_back(items[i].net);
        set_alloc_counting(false);
        const double t0 = now_s();
        route_batch(nets, tech, one, nullptr, &batch_ws);
        d.untraced_s += now_s() - t0;
        set_alloc_counting(true);
        for (std::size_t i = first; i < last; ++i)
            d.results[i] = compose_net(items[i].net, i, items[i].meta.diag_seed, tech, one, ws,
                                       &tr, counts);
    }
    d.traced_s = tr.totals().at("net").total_s;
    return d;
}

std::string trace_accounting(const std::map<std::string, Tracer::Totals>& totals,
                             const ComposedDesign& d)
{
    static constexpr const char* kStages[] = {
        "rtree.validate", "atree.partition", "atree.quadrant", "atree.assemble", "atree",
        "rtree.compile",  "delay.report",    "wiresize",       "sim.moment"};
    Json self;
    for (const char* name : kStages) {
        const auto it = totals.find(name);
        self.num(name, it == totals.end() ? 0.0 : it->second.self_s);
    }
    Json o;
    o.num("untraced_route_s", d.untraced_s)
        .num("traced_net_s", d.traced_s)
        .num("net_glue_self_s", totals.at("net").self_s)
        .raw("stage_self_s", self.done());
    return o.done();
}

void add_stage_metrics(RunResult& out, const Tracer& tr, const ComposeCounts& c)
{
    const auto totals = tr.totals();
    const double nets = static_cast<double>(c.nets);
    const auto us = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_s * 1e6 / nets;
    };
    const auto allocs = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : static_cast<double>(it->second.allocs) / nets;
    };
    const double sized = static_cast<double>(c.wiresized == 0 ? 1 : c.wiresized);
    out.add("atree.us_per_net", "us", us("atree"));
    out.add("atree.quadrant_us_per_net", "us", us("atree.quadrant"));
    out.add("atree.assemble_us_per_net", "us", us("atree.assemble"));
    out.add("atree.allocs_per_net", "count", allocs("atree"));
    out.add("atree.heuristic_moves_per_net", "count",
            static_cast<double>(c.heuristic_moves) / nets);
    out.add("wiresize.us_per_net", "us", us("wiresize"));
    out.add("wiresize.allocs_per_net", "count", allocs("wiresize"));
    out.add("wiresize.owsa_assignments_per_net", "count",
            static_cast<double>(c.owsa_assignments) / sized);
    out.add("wiresize.tight_bounds_share", "share",
            static_cast<double>(c.tight_bounds) / sized);
    out.add("sim.moment_us_per_net", "us", us("sim.moment"));
    out.add("delay.report_us_per_net", "us", us("delay.report"));
    out.add("rtree.validate_us_per_net", "us", us("rtree.validate"));
    out.add("rtree.compile_us_per_net", "us", us("rtree.compile"));
}

Admission admit_session(SessionService& svc, const std::string& text, std::size_t nets,
                        Tracer* tr)
{
    Admission a;
    a.id = svc.open();
    TextBuf buf(text);
    std::istream in(&buf);
    std::vector<NetId> ids;
    {
        Tracer::Scope sp(tr, "session.admit", a.id);
        NetlistReader reader(in);
        ids = svc.add_batch(a.id, reader, 0, &a.stats);
    }
    require(ids.size() == nets, "admission lost nets");
    for (std::size_t i = 0; i < ids.size(); ++i)
        require(ids[i] == i, "admitted net ids are not dense");
    return a;
}

SessionLayer measure_session_layer(const std::vector<std::vector<WorkItem>>& regions,
                                   const std::vector<std::string>& texts,
                                   const std::vector<EcoScript>& scripts,
                                   const Technology& tech, int threads, Tracer& tr,
                                   Tracer* recompose, ComposeCounts* recompose_counts)
{
    SessionLayer s;
    ServiceOptions so;
    so.threads = threads;
    SessionService svc(tech, so);

    double admit_wall = 0.0, route_wall = 0.0;
    std::uint64_t admitted = 0, served = 0, contended = 0;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const double t0 = now_s();
        const Admission a = admit_session(svc, texts[r], regions[r].size(), &tr);
        admit_wall += now_s() - t0;
        require(a.id == r, "session ids are not dense");
        route_wall += a.stats.seconds;
        admitted += regions[r].size();
        served += a.stats.cache_hits + a.stats.cache_shared;
        contended += a.stats.cache_shard_contention;
    }
    s.admit_us_per_net = admit_wall * 1e6 / static_cast<double>(admitted);
    s.admit_serial_share = 1.0 - route_wall / admit_wall;
    s.cache_served_share = static_cast<double>(served) / static_cast<double>(admitted);
    s.cache_contended_per_knet =
        static_cast<double>(contended) * 1000.0 / static_cast<double>(admitted);

    // Pass 1 captures every hot net's repair state; pass 2 is measured.
    for (std::size_t r = 0; r < regions.size(); ++r)
        for (const EcoRequest& q : scripts[r].reqs) svc.apply(r, q.net, q.delta);

    PipelineOptions ropts;
    Workspace rws;
    std::vector<std::vector<QuadrantState>> state(regions.size());
    std::vector<std::vector<Net>> mirror(regions.size());
    std::vector<std::vector<Technology>> mirror_tech(regions.size());
    if (recompose != nullptr) {
        ComposeCounts scratch;
        for (std::size_t r = 0; r < regions.size(); ++r) {
            state[r].resize(regions[r].size());
            mirror_tech[r].assign(regions[r].size(), tech);
            for (const WorkItem& item : regions[r]) mirror[r].push_back(item.net);
            for (const EcoRequest& q : scripts[r].reqs)
                if (!state[r][q.net].valid)
                    compose_net(mirror[r][q.net], q.net, 0, tech, ropts, rws, nullptr,
                                scratch, &state[r][q.net]);
        }
    }

    std::vector<double> lat_inc, lat_full;
    std::uint64_t incremental = 0, dirty = 0, req_no = 0;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        for (const EcoRequest& q : scripts[r].reqs) {
            EcoOutcome o;
            double dt = 0.0;
            {
                Tracer::Scope sp(&tr, "session.apply", req_no);
                const double t0 = now_s();
                o = svc.apply(r, q.net, q.delta);
                dt = now_s() - t0;
            }
            (o.incremental ? lat_inc : lat_full).push_back(dt * 1e6);
            incremental += o.incremental ? 1 : 0;
            dirty += o.dirty_quadrants;
            if (recompose != nullptr) {
                apply_delta(mirror[r][q.net], mirror_tech[r][q.net], q.delta);
                const NetRouteResult c =
                    compose_net(mirror[r][q.net], q.net, 0, mirror_tech[r][q.net], ropts,
                                rws, recompose, *recompose_counts, &state[r][q.net],
                                !o.incremental);
                require(format_results({c}) == format_results({o.result}),
                        "identity: outside recomposition differs from the session's "
                        "ECO result at request " + std::to_string(req_no));
            }
            ++req_no;
        }
    }
    s.traced_requests = req_no;
    s.eco_incremental_share = static_cast<double>(incremental) / static_cast<double>(req_no);
    s.eco_dirty_quadrants = static_cast<double>(dirty) / static_cast<double>(req_no);
    s.apply_incremental_p50_us = quantile(lat_inc, 0.5);
    s.apply_full_p50_us = quantile(lat_full, 0.5);

    for (std::size_t r = 0; r < regions.size(); ++r)
        for (std::size_t i = 0; i < regions[r].size(); ++i)
            s.final_results.push_back(svc.result(r, i));
    return s;
}

void add_session_metrics(RunResult& out, const SessionLayer& s)
{
    out.add("session.admit_us_per_net", "us", s.admit_us_per_net);
    out.add("session.cache_served_share", "share", s.cache_served_share);
    out.add("session.cache_contended_per_knet", "count", s.cache_contended_per_knet);
    out.add("session.eco_incremental_share", "share", s.eco_incremental_share);
    out.add("session.eco_dirty_quadrants", "count", s.eco_dirty_quadrants);
    out.add("session.apply_incremental_p50_us", "us", s.apply_incremental_p50_us);
    out.add("session.apply_full_p50_us", "us", s.apply_full_p50_us);
}

}  // namespace e2e
