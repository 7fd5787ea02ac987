// eco_service: one SessionService with nproc sessions over its shared cache
// and pool.  Each session admits its region's netlist text (one session
// after another); then nproc clients each run a closed loop of ECO deltas
// against their own session.
#include <atomic>
#include <filesystem>
#include <istream>
#include <memory>
#include <thread>

#include "alloc.h"
#include "layers.h"
#include "report/chip_report.h"
#include "session/service.h"
#include "tech/technology.h"
#include "workload/netlist.h"
#include "workloads.h"

namespace e2e {

using namespace cong93;

namespace {

constexpr std::size_t kNetsPerRegion = 512;
constexpr std::size_t kScriptLength = 2048;
constexpr std::size_t kHotNets = 64;
constexpr std::size_t kSampleEvery = 8;
constexpr double kWindowS = 0.25;

struct EcoInputs {
    EcoDesign design;
    std::vector<std::string> texts;
    std::vector<EcoScript> scripts;
};

EcoInputs make_inputs(std::uint64_t seed, int sessions, const Technology& tech)
{
    EcoInputs in;
    Rng rng(seed);
    in.design = make_eco_design(sessions, kNetsPerRegion, rng);
    const Technology alt = tech.with_driver_scale(0.5);
    for (const auto& region : in.design.regions) {
        in.texts.push_back(format_netlist(region, "region"));
        in.scripts.push_back(
            make_eco_script(region, tech, alt, kScriptLength, kHotNets, kSampleEvery, rng));
    }
    return in;
}

std::string inputs_summary(const EcoInputs& in)
{
    std::vector<WorkItem> all;
    for (const auto& r : in.design.regions) all.insert(all.end(), r.begin(), r.end());
    std::array<std::size_t, 4> kinds{};
    std::size_t reqs = 0, hot = 0;
    for (const EcoScript& s : in.scripts) {
        for (std::size_t k = 0; k < 4; ++k) kinds[k] += s.kinds[k];
        reqs += s.reqs.size();
        hot += s.hot_nets;
    }
    const auto share = [&](std::size_t k) {
        return static_cast<double>(kinds[k]) / static_cast<double>(reqs);
    };
    Json mix;
    mix.num("move", share(0)).num("add", share(1)).num("remove", share(2)).num("retech", share(3));
    Json o;
    o.integer("sessions", in.design.regions.size())
        .raw("design", design_summary(all))
        .integer("library_nets", in.design.library_nets)
        .num("duplicate_share",
             static_cast<double>(in.design.copies) / static_cast<double>(all.size()))
        .integer("script_requests_per_client", in.scripts.front().reqs.size())
        .integer("hot_nets_per_client", hot / in.scripts.size())
        .raw("eco_mix", mix.done());
    return o.done();
}

/// One pass over a client's script against its session; `samples` receives
/// the results at the script's sample positions.  Returns failed requests.
std::uint64_t script_pass(SessionService& svc, SessionId id, const EcoScript& script,
                          std::size_t from, std::vector<NetRouteResult>* samples)
{
    std::uint64_t failed = 0;
    std::size_t next_sample = 0;
    for (std::size_t pos = from; pos < script.reqs.size(); ++pos) {
        const EcoRequest& q = script.reqs[pos];
        try {
            EcoOutcome o = svc.apply(id, q.net, q.delta);
            failed += o.result.status == RouteStatus::ok ? 0 : 1;
            if (samples != nullptr && next_sample < script.sample_pos.size() &&
                script.sample_pos[next_sample] == pos) {
                samples->push_back(std::move(o.result));
                ++next_sample;
            }
        } catch (const std::exception&) {
            ++failed;
        }
    }
    return failed;
}

/// Runs `fn(client)` on one thread per client and joins them all.
template <typename Fn>
void each_client(int clients, Fn fn)
{
    std::vector<std::thread> ts;
    ts.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) ts.emplace_back(fn, c);
    for (std::thread& t : ts) t.join();
}

struct EcoSetup {
    EcoInputs in;
    std::unique_ptr<SessionService> svc;
    std::vector<std::vector<NetRouteResult>> admitted;  ///< per session
    std::vector<std::vector<NetRouteResult>> warm_samples;
    std::uint64_t admission_served = 0;
    std::uint64_t warm_failed = 0;
};

std::unique_ptr<EcoSetup> setup_eco(std::uint64_t seed, const Technology& tech, int clients)
{
    auto s = std::make_unique<EcoSetup>();
    s->in = make_inputs(seed, clients, tech);
    ServiceOptions so;
    so.threads = clients;
    s->svc = std::make_unique<SessionService>(tech, so);
    for (int c = 0; c < clients; ++c) {
        const Admission a =
            admit_session(*s->svc, s->in.texts[static_cast<std::size_t>(c)], kNetsPerRegion,
                          nullptr);
        s->admission_served += a.stats.cache_hits + a.stats.cache_shared;
        auto& res = s->admitted.emplace_back();
        for (NetId n = 0; n < kNetsPerRegion; ++n) res.push_back(s->svc->result(a.id, n));
    }
    // Warm-up: one concurrent pass over every script captures each hot net's
    // repair state.
    s->warm_samples.resize(static_cast<std::size_t>(clients));
    std::vector<std::uint64_t> failed(static_cast<std::size_t>(clients), 0);
    each_client(clients, [&](int c) {
        const auto i = static_cast<std::size_t>(c);
        failed[i] = script_pass(*s->svc, i, s->in.scripts[i], 0, &s->warm_samples[i]);
    });
    for (const std::uint64_t f : failed) s->warm_failed += f;
    return s;
}

/// route_single gate: each sampled ECO result must equal a from-scratch
/// route of the mutated net.
void check_samples(const EcoScript& script, const std::vector<NetRouteResult>& got,
                   const std::string& pass)
{
    require(got.size() == script.sample_pos.size(),
            pass + ": sampled ECO results missing");
    Workspace ws;
    const PipelineOptions plain;
    for (std::size_t k = 0; k < got.size(); ++k) {
        const EcoRequest& q = script.reqs[script.sample_pos[k]];
        NetRouteResult ref =
            route_single(script.sample_net[k], 0, 0, script.sample_tech[k], plain, ws);
        ref.diag.net_index = q.net;
        require(format_results({ref}) == format_results({got[k]}),
                "identity: " + pass + " ECO result at script position " +
                    std::to_string(script.sample_pos[k]) + " differs from route_single");
    }
}

struct alignas(64) ClientSlot {
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> failed{0};
    LatencyHistogram lat_us;
    std::size_t pos = 0;
};

RunResult run_untraced(const Args& args, const Technology& tech, int clients)
{
    RunResult out;
    std::vector<double> setups;
    std::unique_ptr<EcoSetup> s;
    for (int k = 0; k < kSetups; ++k) {
        s.reset();
        const StealMeter steal;
        const double t0 = now_s();
        s = setup_eco(args.seed, tech, clients);
        setups.push_back((now_s() - t0) * (1.0 - steal.share()));
    }
    require(s->warm_failed == 0, "warm-up ECO requests failed");

    // Closed loop: each client sends its next request when the previous one
    // returns, cycling through its script.
    const StealMeter steal;
    std::vector<ClientSlot> slots(static_cast<std::size_t>(clients));
    std::atomic<bool> go{false}, stop{false};
    std::vector<std::thread> ts;
    for (int c = 0; c < clients; ++c) {
        ts.emplace_back([&, c] {
            const auto i = static_cast<std::size_t>(c);
            ClientSlot& sl = slots[i];
            const EcoScript& script = s->in.scripts[i];
            std::size_t pos = 0;
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
            while (!stop.load(std::memory_order_relaxed)) {
                const EcoRequest& q = script.reqs[pos];
                const double t0 = now_s();
                bool ok = false;
                try {
                    ok = s->svc->apply(i, q.net, q.delta).result.status == RouteStatus::ok;
                } catch (const std::exception&) {
                    ok = false;
                }
                sl.lat_us.add((now_s() - t0) * 1e6);
                if (!ok) sl.failed.fetch_add(1, std::memory_order_relaxed);
                sl.done.fetch_add(1, std::memory_order_relaxed);
                pos = pos + 1 == script.reqs.size() ? 0 : pos + 1;
            }
            sl.pos = pos;
        });
    }
    const auto total_done = [&] {
        std::uint64_t n = 0;
        for (const ClientSlot& sl : slots) n += sl.done.load(std::memory_order_relaxed);
        return n;
    };
    std::vector<double> rates, raw_rates;
    go.store(true, std::memory_order_release);
    const double start = now_s();
    double t_prev = start;
    std::uint64_t n_prev = total_done();
    while (t_prev - start < args.seconds) {
        const StealMeter window_steal;
        std::this_thread::sleep_for(std::chrono::duration<double>(kWindowS));
        const double t = now_s();
        const std::uint64_t n = total_done();
        const double kept = 1.0 - window_steal.share();
        raw_rates.push_back(static_cast<double>(n - n_prev) / (t - t_prev));
        rates.push_back(raw_rates.back() / kept);
        t_prev = t;
        n_prev = n;
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : ts) t.join();
    // Read before the verification passes below add the gates' own copies.
    const double rss_mb = peak_rss_mb();

    const double steal_share = steal.share();
    LatencyHistogram lat;
    for (ClientSlot& sl : slots) {
        lat.merge(sl.lat_us);
        out.attempted += sl.done.load();
        out.failed += sl.failed.load();
    }

    // Untimed: finish each client's current pass, so every net is back at
    // its admitted geometry, then run one more pass with samples.
    std::vector<std::vector<NetRouteResult>> samples(static_cast<std::size_t>(clients));
    std::vector<std::uint64_t> tail_failed(static_cast<std::size_t>(clients), 0);
    each_client(clients, [&](int c) {
        const auto i = static_cast<std::size_t>(c);
        tail_failed[i] = script_pass(*s->svc, i, s->in.scripts[i], slots[i].pos, nullptr);
        tail_failed[i] += script_pass(*s->svc, i, s->in.scripts[i], 0, &samples[i]);
    });
    for (const std::uint64_t f : tail_failed) require(f == 0, "verification ECO requests failed");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        check_samples(s->in.scripts[i], s->warm_samples[i], "warm-up");
        check_samples(s->in.scripts[i], samples[i], "final pass");
    }

    // Every script returns its nets to their admitted geometry, so the
    // sessions' final results must equal what admission produced.
    ChipAggregator agg(tech);
    std::size_t index = 0;
    for (std::size_t c = 0; c < s->admitted.size(); ++c) {
        std::vector<NetRouteResult> final_results;
        for (std::size_t n = 0; n < kNetsPerRegion; ++n)
            final_results.push_back(s->svc->result(c, n));
        require(format_results(final_results) == format_results(s->admitted[c]),
                "identity: session " + std::to_string(c) +
                    " final results differ from its admission results");
        for (std::size_t n = 0; n < kNetsPerRegion; ++n)
            agg.add(index++, s->in.design.regions[c][n], final_results[n]);
    }

    const ChipSummary& sum = agg.summary();
    const double routed = static_cast<double>(sum.routed);
    out.add("throughput_per_s", "1/s", quantile(rates, 0.5));
    out.add("latency_p50_us", "us", lat.quantile(0.5) * (1.0 - steal_share));
    out.add("setup_s", "s", quantile(setups, 0.5));
    out.add("peak_rss_mb", "MiB", rss_mb);
    out.add("wirelength_per_net", "grid", static_cast<double>(sum.total_wirelength) / routed);
    out.add("mean_delay_ps", "ps", sum.sum_delay_s / routed * 1e12);
    out.add("ok_share", "share",
            static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted));

    out.detail.integer("clients", static_cast<std::uint64_t>(clients))
        .raw("input", inputs_summary(s->in))
        .integer("admission_cache_served", s->admission_served)
        .spread("throughput_per_s_windows", spread_of(rates))
        .spread("throughput_per_s_raw_windows", spread_of(raw_rates))
        .num("window_s", kWindowS)
        .raw("latency_us_requests", lat.summary())
        .spread("setup_s_setups", spread_of(setups))
        .num("host_steal_share", steal_share)
        .str("machine_line", agg.machine_line())
        .boolean("gates_passed", true);
    return out;
}

RunResult run_traced(const Args& args, const Technology& tech, int clients)
{
    RunResult out;
    const EcoInputs in = make_inputs(args.seed, clients, tech);
    std::vector<Net> nets;
    for (const auto& r : in.design.regions)
        for (const WorkItem& item : r) nets.push_back(item.net);
    const std::size_t n = nets.size();

    ThreadPool pool(clients);
    const BatchLayer b = measure_batch_layer(nets, tech, pool, 0.25 * args.seconds);

    // Traced pass over the admitted design: parse, compose, gate against
    // route_batch.  This is also the trace-overhead reference.
    Tracer tr;
    ComposeCounts design_counts;
    std::vector<WorkItem> parsed;
    set_alloc_counting(true);
    for (std::size_t r = 0; r < in.texts.size(); ++r) {
        TextBuf buf(in.texts[r]);
        std::istream is(&buf);
        Tracer::Scope sp(&tr, "workload.parse", r);
        NetlistReader reader(is);
        while (reader.pull(parsed, kNetsPerRegion) != 0) {
        }
    }
    require(parsed.size() == n, "traced parse lost nets");
    const ComposedDesign d = compose_design(parsed, tech, 64, tr, design_counts);
    require(format_results(d.results) == format_results(b.results_1t),
            "identity: traced stage composition differs from route_batch");

    // The session layer, with every traced ECO request recomposed from
    // outside into its own tracer: the stage metrics of this workload are
    // those of the ECO repairs.
    Tracer tre;
    ComposeCounts eco_counts;
    const SessionLayer sl = measure_session_layer(in.design.regions, in.texts, in.scripts,
                                                  tech, clients, tr, &tre, &eco_counts);
    ChipAggregator agg(tech);
    {
        std::size_t index = 0;
        Tracer::Scope sp(&tr, "report.aggregate", 0);
        for (const auto& region : in.design.regions)
            for (const WorkItem& item : region) {
                agg.add(index, item, sl.final_results[index]);
                ++index;
            }
    }
    set_alloc_counting(false);

    const auto totals = tr.totals();
    add_stage_metrics(out, tre, eco_counts);
    add_batch_metrics(out, b, clients);
    out.add("workload.parse_us_per_net", "us",
            totals.at("workload.parse").total_s * 1e6 / static_cast<double>(n));
    out.add("workload.serial_share", "share", sl.admit_serial_share);
    out.add("report.aggregate_us_per_net", "us",
            totals.at("report.aggregate").total_s * 1e6 / static_cast<double>(n));
    add_session_metrics(out, sl);
    out.add("trace.overhead_share", "share", d.traced_s / d.untraced_s - 1.0);
    out.attempted = sl.traced_requests;

    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + args.workload + ".tsv";
    const std::string eco_path = args.trace_dir + "/" + args.workload + ".recompose.tsv";
    tr.write_tsv(path);
    tre.write_tsv(eco_path);
    out.detail.integer("clients", static_cast<std::uint64_t>(clients))
        .raw("input", inputs_summary(in))
        .integer("rounds_1t", b.rounds_1t)
        .integer("rounds_nt", b.rounds_nt)
        .raw("trace_accounting", trace_accounting(totals, d))
        .integer("traced_requests", sl.traced_requests)
        .integer("recomposed_quadrants", eco_counts.quadrants_built)
        .str("trace_file", path)
        .str("recompose_trace_file", eco_path)
        .boolean("gates_passed", true);
    return out;
}

}  // namespace

RunResult run_eco(const Args& args)
{
    const Technology tech = mcm_technology();
    const int clients = nproc();
    return args.trace ? run_traced(args, tech, clients) : run_untraced(args, tech, clients);
}

}  // namespace e2e
