// stream_small and stream_wide: a generated design written once as netlist
// text, then parsed by NetlistReader, routed by route_stream on a pool of
// nproc workers and rolled up by ChipAggregator each round -- the
// `cong93 chip --in` path with a persistent pool.
#include <filesystem>
#include <istream>
#include <memory>

#include "alloc.h"
#include "layers.h"
#include "report/chip_report.h"
#include "tech/technology.h"
#include "workload/netlist.h"
#include "workload/stream.h"
#include "workloads.h"

namespace e2e {

using namespace cong93;

namespace {

/// route_stream's default chunk, as `cong93 chip` streams a design.
const std::size_t kChunk = StreamOptions{}.chunk_nets;

/// Nets per block when the traced run interleaves untraced and traced
/// routing of the same nets.
constexpr std::size_t kBlock = 64;

DesignSpec spec_of(const std::string& workload)
{
    if (workload == "stream_small")  // low-fanout signal nets, 80% with <= 6 sinks
        return DesignSpec{16384, 2, 6, 16, 0.8, 4000, 100, 1500};
    // high-fanout nets: clock, enable and bus nets
    return DesignSpec{512, 48, 128, 128, 1.0, 4000, 1000, 4000};
}

struct Round {
    double wall = 0.0;
    /// Per chunk: wall time from the stream pulling the chunk to its results
    /// reaching the visitor (parse + route of that chunk).
    std::vector<double> chunk_s;
    std::string machine;
    StreamStats st;
    ChipSummary summary;
};

/// One pass over the design: parse, route, roll up; `keep` receives every
/// result.
Round stream_round(const std::string& text, const Technology& tech,
                   const PipelineOptions& popts, std::vector<NetRouteResult>* keep)
{
    Round r;
    TextBuf buf(text);
    std::istream in(&buf);
    const double t0 = now_s();
    NetlistReader reader(in);
    ChipAggregator agg(tech);
    double pulled_at = t0;
    r.st = route_stream(reader, tech, popts, StreamOptions{},
                        [&](std::size_t first, const std::vector<WorkItem>& items,
                            const std::vector<NetRouteResult>& results) {
                            r.chunk_s.push_back(now_s() - pulled_at);
                            agg.add_chunk(first, items, results);
                            if (keep != nullptr)
                                keep->insert(keep->end(), results.begin(), results.end());
                            pulled_at = now_s();
                        });
    r.wall = now_s() - t0;
    require(r.st.source_error.empty(), "stream error: " + r.st.source_error);
    r.machine = agg.machine_line();
    r.summary = agg.summary();
    return r;
}

struct StreamSetup {
    std::vector<WorkItem> items;
    std::string text;
    std::unique_ptr<ThreadPool> pool;
    PipelineOptions popts;
    std::string machine_line;  ///< the roll-up every later round must repeat
};

std::unique_ptr<StreamSetup> setup_stream(const std::string& workload, std::uint64_t seed,
                                          const Technology& tech, int threads)
{
    auto s = std::make_unique<StreamSetup>();
    Rng rng(seed);
    s->items = make_design(spec_of(workload), rng);
    s->text = format_netlist(s->items, workload);
    s->pool = std::make_unique<ThreadPool>(threads);
    s->popts = pool_options(s->pool.get(), threads);
    // Two warm-up rounds grow the workspaces and fault in the heap.
    const Round w1 = stream_round(s->text, tech, s->popts, nullptr);
    const Round w2 = stream_round(s->text, tech, s->popts, nullptr);
    require(w1.machine == w2.machine, "identity: warm-up roll-ups differ");
    s->machine_line = w1.machine;
    return s;
}

RunResult run_untraced(const Args& args, const Technology& tech, int threads)
{
    RunResult out;
    std::vector<double> setups;
    std::unique_ptr<StreamSetup> s;
    for (int k = 0; k < kSetups; ++k) {
        s.reset();
        const StealMeter steal;
        const double t0 = now_s();
        s = setup_stream(args.workload, args.seed, tech, threads);
        setups.push_back((now_s() - t0) * (1.0 - steal.share()));
    }
    const double nets = static_cast<double>(s->items.size());

    std::vector<double> rates, raw_rates, chunks;
    const StealMeter steal;
    const double deadline = now_s() + args.seconds;
    while (rates.size() < 3 || now_s() < deadline) {
        const StealMeter round_steal;
        const Round r = stream_round(s->text, tech, s->popts, nullptr);
        const double kept = 1.0 - round_steal.share();
        require(r.machine == s->machine_line,
                "identity: a timed round's roll-up differs from the first round's");
        rates.push_back(nets / (r.wall * kept));
        raw_rates.push_back(nets / r.wall);
        for (const double c : r.chunk_s) chunks.push_back(c * kept);
        out.attempted += s->items.size();
        out.failed += r.st.pipeline.nets_not_ok();
    }

    const double steal_share = steal.share();
    // Read before the identity gates below add the gates' own copies.
    const double rss_mb = peak_rss_mb();

    // Identity gates, untimed: nproc-thread and 1-thread streams must give
    // byte-identical results and roll-ups.
    std::vector<NetRouteResult> res_n, res_1;
    const Round rn = stream_round(s->text, tech, s->popts, &res_n);
    PipelineOptions one;
    one.threads = 1;
    const Round r1 = stream_round(s->text, tech, one, &res_1);
    require(format_results(res_1) == format_results(res_n),
            "identity: 1-thread and " + std::to_string(threads) +
                "-thread result digests differ");
    require(r1.machine == s->machine_line && rn.machine == s->machine_line,
            "identity: 1-thread and nproc-thread roll-ups differ");

    const double routed = static_cast<double>(rn.summary.routed);
    out.add("throughput_per_s", "1/s", quantile(rates, 0.5));
    out.add("latency_p50_us", "us", quantile(chunks, 0.5) * 1e6);  // chunk turnaround
    out.add("setup_s", "s", quantile(setups, 0.5));
    out.add("peak_rss_mb", "MiB", rss_mb);
    out.add("wirelength_per_net", "grid", static_cast<double>(rn.summary.total_wirelength) / routed);
    out.add("mean_delay_ps", "ps", rn.summary.sum_delay_s / routed * 1e12);
    out.add("ok_share", "share", static_cast<double>(rn.st.pipeline.nets_ok) / nets);

    out.detail.integer("threads", static_cast<std::uint64_t>(threads))
        .integer("chunk_nets", kChunk)
        .raw("input", design_summary(s->items))
        .spread("throughput_per_s_rounds", spread_of(rates))
        .spread("throughput_per_s_raw_rounds", spread_of(raw_rates))
        .spread("chunk_turnaround_s", spread_of(chunks))
        .num("chunk_turnaround_s_p95", quantile(chunks, 0.95))
        .spread("setup_s_setups", spread_of(setups))
        .num("host_steal_share", steal_share)
        .str("machine_line", s->machine_line)
        .boolean("gates_passed", true);
    return out;
}

RunResult run_traced(const Args& args, const Technology& tech, int threads)
{
    RunResult out;
    const auto s = setup_stream(args.workload, args.seed, tech, threads);
    const std::size_t n = s->items.size();
    std::vector<Net> nets;
    nets.reserve(n);
    for (const WorkItem& item : s->items) nets.push_back(item.net);

    // Untraced layer timings: route_batch at 1 and nproc threads, then the
    // stream's serial share (wall outside route_batch).
    const BatchLayer b = measure_batch_layer(nets, tech, *s->pool, 0.25 * args.seconds);
    std::vector<double> serial;
    const double serial_end = now_s() + 0.1 * args.seconds;
    while (serial.size() < 3 || now_s() < serial_end) {
        const Round r = stream_round(s->text, tech, s->popts, nullptr);
        serial.push_back(1.0 - r.st.seconds / r.wall);
    }

    // The traced pass: parse, compose every net from the public stages and
    // roll up, one thread, spans and allocation counts on.
    Tracer tr;
    ComposeCounts counts;
    std::vector<WorkItem> parsed;
    ChipAggregator agg(tech);
    set_alloc_counting(true);
    {
        TextBuf buf(s->text);
        std::istream in(&buf);
        NetlistReader reader(in);
        for (;;) {
            Tracer::Scope sp(&tr, "workload.parse", parsed.size());
            if (reader.pull(parsed, kChunk) == 0) break;
        }
    }
    require(parsed.size() == n, "traced parse lost nets");
    const ComposedDesign d = compose_design(parsed, tech, kBlock, tr, counts);
    for (std::size_t first = 0; first < n; first += kChunk) {
        const auto lo = static_cast<std::ptrdiff_t>(first);
        const auto hi = static_cast<std::ptrdiff_t>(std::min(n, first + kChunk));
        const std::vector<WorkItem> items(parsed.begin() + lo, parsed.begin() + hi);
        const std::vector<NetRouteResult> chunk(d.results.begin() + lo, d.results.begin() + hi);
        Tracer::Scope sp(&tr, "report.aggregate", first);
        agg.add_chunk(first, items, chunk);
    }
    set_alloc_counting(false);
    require(format_results(d.results) == format_results(b.results_1t),
            "identity: traced stage composition differs from route_batch");
    require(agg.machine_line() == s->machine_line,
            "identity: traced roll-up differs from the stream's");

    // The session layer on this design: one region of 64 nets per worker.
    std::vector<std::vector<WorkItem>> regions(static_cast<std::size_t>(threads));
    std::vector<std::string> texts;
    std::vector<EcoScript> scripts;
    Rng rng(args.seed ^ 0x5e55u);
    const Technology alt = tech.with_driver_scale(0.5);
    for (std::size_t r = 0; r < regions.size(); ++r) {
        for (std::size_t i = 0; i < 64; ++i)
            regions[r].push_back(s->items[(r * 64 + i) % n]);
        texts.push_back(format_netlist(regions[r], "probe"));
        scripts.push_back(make_eco_script(regions[r], tech, alt, 256, 16, 1u << 30, rng));
    }
    const SessionLayer sl = measure_session_layer(regions, texts, scripts, tech, threads, tr,
                                                  nullptr, nullptr);

    const auto totals = tr.totals();
    add_stage_metrics(out, tr, counts);
    add_batch_metrics(out, b, threads);
    out.add("workload.parse_us_per_net", "us",
            totals.at("workload.parse").total_s * 1e6 / static_cast<double>(n));
    out.add("workload.serial_share", "share", quantile(serial, 0.5));
    out.add("report.aggregate_us_per_net", "us",
            totals.at("report.aggregate").total_s * 1e6 / static_cast<double>(n));
    add_session_metrics(out, sl);
    out.add("trace.overhead_share", "share", d.traced_s / d.untraced_s - 1.0);
    out.attempted = n;

    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + args.workload + ".tsv";
    tr.write_tsv(path);
    out.detail.integer("threads", static_cast<std::uint64_t>(threads))
        .raw("input", design_summary(s->items))
        .integer("rounds_1t", b.rounds_1t)
        .integer("rounds_nt", b.rounds_nt)
        .raw("trace_accounting", trace_accounting(totals, d))
        .integer("spans", tr.spans().size())
        .str("trace_file", path)
        .integer("session_probe_requests", sl.traced_requests)
        .boolean("gates_passed", true);
    return out;
}

}  // namespace

bool is_stream_workload(const std::string& name)
{
    return name == "stream_small" || name == "stream_wide";
}

RunResult run_stream(const Args& args)
{
    const Technology tech = mcm_technology();
    const int threads = nproc();
    return args.trace ? run_traced(args, tech, threads) : run_untraced(args, tech, threads);
}

}  // namespace e2e
