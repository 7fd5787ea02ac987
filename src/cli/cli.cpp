#include "cli/cli.h"

#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "batch/pipeline.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "netgen/netgen.h"
#include "report/chip_report.h"
#include "report/table.h"
#include "rtree/io.h"
#include "workload/net_source.h"
#include "workload/netlist.h"
#include "workload/stream.h"
#include "session/service.h"
#include "session/session.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/bottom_up.h"
#include "wiresize/combined.h"

namespace cong93 {

std::string cli_usage()
{
    return R"(usage: cong93 <command> [options]

commands:
  gen        generate random nets and print them (--out also writes the
             cong93 netlist format, read back by chip/batch --in)
  route      route nets, print metrics (optionally dump trees with --out)
  flow       route + wiresize + simulate
  simulate   simulate serialized trees (--in trees.txt)
  batch      fault-isolated batch pipeline: per-net status + diagnostics
  chip       chip-level workload: stream a whole design (netlist --in, or
             --random generated nets) through route_stream in bounded-memory
             chunks and roll up worst slacks + measured-vs-bounding-box
             delay ratios into a chip report
  session    replay an ECO delta script (--in) through the incremental
             session engine: gen/net admit nets, move/add/remove/retech
             repair them in place, route/print/stats inspect
  serve      multi-session service stress: concurrent client threads share
             one route cache + worker pool, then the transcripts
             are verified byte-identical against serial session replay

options:
  --in <file>          input netlist/tree file (default: generated nets)
  --random <n>         number of generated nets (default 10)
  --sinks <k>          sinks per generated net (default 8)
  --grid <g>           generated-net region in grid units (default 4000)
  --seed <s>           generator seed (default 1)
  --algo <name>        atree|steiner|mst|spt|brbc05|brbc10 (default atree)
  --tech <name>        mcm|cmos20|cmos15|cmos12|cmos05 (default mcm)
  --driver-scale <x>   driver transistor scale factor (default 1)
  --widths <r>         wiresizing width count (flow; default 4)
  --sizer <name>       combined|owsa|grewsa|bottomup (flow; default combined)
  --method <name>      two_pole|transient (default two_pole)
  --threshold <t>      delay threshold in (0,1) (default 0.5)
  --rlc                include wire inductance in simulations
  --out <file>         write routed trees (route/flow)
  --threads <t>        batch worker threads (0 = CONG93_THREADS / hardware)
  --max-nodes <n>      batch per-net arena cap in nodes (0 = uncapped)
  --fault-inject <s>   batch fault-injection spec, e.g.
                       "seed=7,topology=0.2,wiresize=0.2,arena-cap=40@0.1"
  --deadline-ms <t>    per-request wall deadline in milliseconds (0 = none);
                       pressured nets degrade to deadline_degraded -- cheap
                       topology, no wiresizing -- instead of running long
  --queue-cap <n>      admission bound: batch/session admit only the first n
                       nets of a batch (rejected_overload beyond); serve
                       bounds concurrently in-flight requests and refuses
                       the rest up front (0 = unbounded)
  --memory-budget <b>  resident-bytes budget over route cache + workspace
                       arenas (serve: + per-net session state); LRU cache
                       entries are pressure-evicted until the total fits
                       (0 = no budget)
  --cache-capacity <n> session route-cache entry cap (default 0 = unbounded)
  --no-cache           session: admit without the hash-consed route cache
  --sessions <n>       serve: concurrent sessions / client threads (default 2)
  --requests <r>       serve: requests per session script (default 3)
  --chunk-nets <c>     nets per route_stream chunk (batch/chip); 0 keeps
                       batch on one chunk and chip on its streaming
                       default of 4096
  --top <k>            chip: worst-slack leaderboard size (default 10)
)";
}

namespace {

Technology technology_by_name(const std::string& name, double driver_scale)
{
    Technology t;
    if (name == "mcm") t = mcm_technology();
    else if (name == "cmos20") t = cmos_2000nm();
    else if (name == "cmos15") t = cmos_1500nm();
    else if (name == "cmos12") t = cmos_1200nm();
    else if (name == "cmos05") t = cmos_500nm();
    else throw std::invalid_argument("unknown technology: " + name);
    return driver_scale == 1.0 ? t : t.with_driver_scale(driver_scale);
}

RoutingTree route_net(const Net& net, const std::string& algo)
{
    if (algo == "atree") return build_atree_general(net).tree;
    if (algo == "steiner") return build_one_steiner(net).tree;
    if (algo == "mst") return build_mst_tree(net);
    if (algo == "spt") return build_spt(net);
    if (algo == "brbc05") return build_brbc(net, 0.5);
    if (algo == "brbc10") return build_brbc(net, 1.0);
    throw std::invalid_argument("unknown algorithm: " + algo);
}

SimMethod method_by_name(const std::string& name)
{
    if (name == "two_pole") return SimMethod::two_pole;
    if (name == "transient") return SimMethod::transient;
    throw std::invalid_argument("unknown simulation method: " + name);
}

std::string read_input(const CliOptions& opts, const std::string* input_text)
{
    if (input_text) return *input_text;
    std::ifstream in(opts.input_path);
    if (!in) throw std::invalid_argument("cannot open " + opts.input_path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// The nets of `route`/`flow`: generated, or parsed from the legacy net
/// list.  Throws std::invalid_argument for an input with no nets and for a
/// net validate_net rejects; valid nets are returned as given, without
/// validate's canonicalization.
std::vector<Net> load_nets(const CliOptions& opts, const std::string* input_text)
{
    const std::vector<Net> nets =
        opts.input_path.empty() && !input_text
            ? random_nets(opts.seed, opts.random_count, opts.grid, opts.sinks)
            : parse_nets(read_input(opts, input_text));
    if (nets.empty()) throw std::invalid_argument("no nets in input");
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const NetValidation v = validate_net(nets[i]);
        if (!v.ok)
            throw std::invalid_argument("net " + std::to_string(i) + ": " + v.error);
    }
    return nets;
}

/// Splits a concatenation of tree blocks and parses each.
std::vector<RoutingTree> parse_tree_blocks(const std::string& text)
{
    std::vector<RoutingTree> trees;
    std::istringstream is(text);
    std::string line;
    std::string block;
    bool in_block = false;
    while (std::getline(is, line)) {
        std::istringstream probe(line);
        std::string first;
        probe >> first;
        if (first == "tree") in_block = true;
        if (in_block) block += line + '\n';
        if (first == "end" && in_block) {
            trees.push_back(parse_tree(block));
            block.clear();
            in_block = false;
        }
    }
    if (in_block) throw std::invalid_argument("unterminated tree block");
    if (trees.empty()) throw std::invalid_argument("no trees in input");
    return trees;
}

int run_gen(const CliOptions& opts, std::ostream& out)
{
    // Pull through the workload source (bit-identical to random_nets) so
    // the stdout dump and the --out netlist describe one generation.
    GeneratedNetSource src(opts.seed, static_cast<std::size_t>(opts.random_count),
                           opts.grid, opts.sinks);
    std::vector<WorkItem> items;
    items.reserve(src.size_hint());
    while (src.pull(items, 1024) != 0) {
    }
    std::vector<Net> nets;
    nets.reserve(items.size());
    for (const WorkItem& item : items) nets.push_back(item.net);

    out << "# cong93 gen --random " << opts.random_count << " --sinks " << opts.sinks
        << " --grid " << opts.grid << " --seed " << opts.seed << '\n'
        << format_nets(nets);
    if (!opts.out_path.empty()) {
        std::ofstream of(opts.out_path);
        if (!of) throw std::invalid_argument("cannot write " + opts.out_path);
        of << format_netlist(items, "rand" + std::to_string(opts.seed));
        out << "wrote " << items.size() << " nets to " << opts.out_path << '\n';
    }
    return 0;
}

int run_route(const CliOptions& opts, std::ostream& out,
              const std::string* input_text)
{
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);
    const std::vector<Net> nets = load_nets(opts, input_text);
    const SimMethod method = method_by_name(opts.method);

    TextTable t({"net", "sinks", "length", "radius", "sum sink pl",
                 "mean delay (ns)", "max delay (ns)"});
    std::string dump;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const RoutingTree tree = route_net(nets[i], opts.algo);
        // One compile per net; metrics and simulation share it.
        const FlatTree ft(tree);
        const NetSummary s = summarize_net(ft);
        const DelayReport d =
            measure_delay(ft, tech, method, opts.threshold, opts.rlc);
        t.add_row({std::to_string(i), std::to_string(nets[i].sinks.size()),
                   std::to_string(s.length), std::to_string(s.radius),
                   std::to_string(s.sum_sink_path_lengths), fmt_ns(d.mean),
                   fmt_ns(d.max)});
        if (!opts.out_path.empty()) dump += format_tree(tree);
    }
    t.print(out);
    if (!opts.out_path.empty()) {
        std::ofstream of(opts.out_path);
        if (!of) throw std::invalid_argument("cannot write " + opts.out_path);
        of << dump;
        out << "wrote " << nets.size() << " trees to " << opts.out_path << '\n';
    }
    return 0;
}

int run_flow(const CliOptions& opts, std::ostream& out, const std::string* input_text)
{
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);
    const std::vector<Net> nets = load_nets(opts, input_text);
    const SimMethod method = method_by_name(opts.method);
    const WidthSet widths = WidthSet::uniform_steps(opts.widths);

    TextTable t({"net", "length", "uniform delay (ns)", "wiresized delay (ns)",
                 "gain"});
    double before_total = 0.0, after_total = 0.0;
    std::string dump;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const RoutingTree tree = route_net(nets[i], opts.algo);
        // One compile per net; the wiresizing context, both delay
        // measurements, and the length column all derive from it.
        const FlatTree ft(tree);
        const WiresizeContext ctx(ft, tech, widths);
        Assignment assignment;
        if (opts.sizer == "combined") assignment = grewsa_owsa(ctx).assignment;
        else if (opts.sizer == "owsa") assignment = owsa(ctx).assignment;
        else if (opts.sizer == "grewsa") assignment = grewsa_from_min(ctx).assignment;
        else if (opts.sizer == "bottomup")
            assignment = bottom_up_wiresize(ctx).assignment;
        else throw std::invalid_argument("unknown sizer: " + opts.sizer);

        const double before =
            measure_delay(ft, tech, method, opts.threshold, opts.rlc).mean;
        const double after = measure_delay_wiresized(ctx, assignment, method,
                                                     opts.threshold, opts.rlc)
                                 .mean;
        before_total += before;
        after_total += after;
        t.add_row({std::to_string(i), std::to_string(total_length(ft)),
                   fmt_ns(before), fmt_ns(after), fmt_pct_delta(before, after)});
        if (!opts.out_path.empty()) dump += format_tree(tree);
    }
    t.print(out);
    out << "aggregate: " << fmt_ns(before_total / static_cast<double>(nets.size()))
        << " ns -> " << fmt_ns(after_total / static_cast<double>(nets.size()))
        << " ns (" << fmt_pct_delta(before_total, after_total) << ")\n";
    if (!opts.out_path.empty()) {
        std::ofstream of(opts.out_path);
        if (!of) throw std::invalid_argument("cannot write " + opts.out_path);
        of << dump;
    }
    return 0;
}

int run_batch(const CliOptions& opts, std::ostream& out,
              const std::string* input_text)
{
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);
    PipelineOptions popts;
    popts.widths_r = opts.widths;
    popts.threads = opts.threads;
    popts.max_nodes_per_net = opts.max_nodes;
    popts.faults = FaultPlan::parse(opts.fault_spec);
    popts.deadline_ms = opts.deadline_ms;
    popts.admit_cap = opts.queue_cap;

    // Workload source selection: generated nets (diagnostics carry
    // net_seed(seed, index), exactly like the seeded route_batch
    // front-end), a cong93 netlist (malformed blocks surface as
    // invalid_input results, never exceptions), or the legacy net list.
    std::optional<GeneratedNetSource> gen;
    std::optional<VectorNetSource> vec;
    std::optional<NetlistReader> reader;
    std::istringstream netlist_text;
    NetSource* src = nullptr;
    if (opts.input_path.empty() && !input_text) {
        gen.emplace(opts.seed, static_cast<std::size_t>(opts.random_count),
                    opts.grid, opts.sinks);
        src = &*gen;
    } else {
        const std::string text = read_input(opts, input_text);
        if (text.rfind("# cong93 netlist", 0) == 0) {
            netlist_text.str(text);
            reader.emplace(netlist_text);
            src = &*reader;
        } else {
            vec.emplace(parse_nets(text));
            src = &*vec;
        }
    }

    // Stream through route_batch; --chunk-nets 0 (the default) keeps one
    // chunk, i.e. the exact historical one-shot behavior.
    StreamOptions sopts;
    sopts.chunk_nets = opts.chunk_nets;
    std::vector<NetRouteResult> results;
    const StreamStats st = route_stream(
        *src, tech, popts, sopts,
        [&](std::size_t, const std::vector<WorkItem>&,
            const std::vector<NetRouteResult>& chunk) {
            results.insert(results.end(), chunk.begin(), chunk.end());
        });
    const PipelineStats& stats = st.pipeline;

    // The result lines and the summary are deterministic at any thread
    // count (timings deliberately excluded), so outputs can be diffed
    // across serial/parallel runs -- the CI fault-injection smoke does.
    out << format_results(results);
    out << "batch: " << results.size() << " nets  ok " << stats.nets_ok
        << "  fallback " << stats.nets_fallback << "  uniform_width "
        << stats.nets_uniform_width << "  deadline_degraded "
        << stats.nets_deadline_degraded << "  invalid " << stats.nets_invalid
        << "  cancelled " << stats.nets_cancelled << "  rejected "
        << stats.nets_rejected << "  failed " << stats.nets_failed
        << "  fault_events " << stats.fault_events << '\n';
    // Degraded nets are an expected outcome under fault or deadline load;
    // only a batch where nothing routed at all exits nonzero.
    const bool any_routed =
        results.empty() || stats.nets_ok + stats.nets_fallback +
                                   stats.nets_uniform_width +
                                   stats.nets_deadline_degraded >
                               0;
    return any_routed ? 0 : 1;
}

/// Chip-level roll-up: stream a whole design (netlist file or generated
/// nets) through route_stream in bounded-memory chunks and fold every
/// routed net into the ChipAggregator.  The report and the machine line
/// are byte-identical at any thread count; the '#'-prefixed telemetry
/// lines are the only schedule-dependent output.
int run_chip(const CliOptions& opts, std::ostream& out,
             const std::string* input_text)
{
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);
    PipelineOptions popts;
    popts.widths_r = opts.widths;
    popts.threads = opts.threads;
    popts.max_nodes_per_net = opts.max_nodes;
    popts.faults = FaultPlan::parse(opts.fault_spec);
    popts.deadline_ms = opts.deadline_ms;
    popts.admit_cap = opts.queue_cap;

    // A netlist file streams straight off the ifstream -- the design is
    // never fully resident; only --random synthesizes nets on the fly.
    std::optional<GeneratedNetSource> gen;
    std::optional<NetlistReader> reader;
    std::ifstream file;
    std::istringstream text_stream;
    NetSource* src = nullptr;
    if (!opts.input_path.empty() || input_text != nullptr) {
        if (input_text != nullptr) {
            text_stream.str(*input_text);
            reader.emplace(text_stream);
        } else {
            file.open(opts.input_path);
            if (!file)
                throw std::invalid_argument("cannot read " + opts.input_path);
            reader.emplace(file);
        }
        src = &*reader;
    } else {
        gen.emplace(opts.seed, static_cast<std::size_t>(opts.random_count),
                    opts.grid, opts.sinks);
        src = &*gen;
    }

    StreamOptions sopts;
    sopts.chunk_nets = opts.chunk_nets == 0 ? 4096 : opts.chunk_nets;

    ChipAggregator agg(tech, opts.top);
    const StreamStats st = route_stream(
        *src, tech, popts, sopts,
        [&](std::size_t first, const std::vector<WorkItem>& items,
            const std::vector<NetRouteResult>& results) {
            agg.add_chunk(first, items, results);
        });
    const PipelineStats& stats = st.pipeline;

    out << agg.table();
    out << agg.machine_line() << '\n';
    out << "chip outcomes: ok " << stats.nets_ok << "  fallback "
        << stats.nets_fallback << "  uniform_width "
        << stats.nets_uniform_width << "  deadline_degraded "
        << stats.nets_deadline_degraded << "  invalid " << stats.nets_invalid
        << "  cancelled " << stats.nets_cancelled << "  rejected "
        << stats.nets_rejected << "  failed " << stats.nets_failed << '\n';
    // Throughput/memory telemetry is timing-dependent; '#'-prefixed lines
    // are excluded from the CI serial-vs-threaded transcript diff.
    out << "# chip stream: chunks " << st.chunks << "  peak_chunk_nets "
        << st.peak_chunk_nets << "  nets_per_sec " << st.nets_per_sec
        << "  pull_seconds " << st.pull_seconds
        << "  workspace_resident_bytes " << st.workspace_resident_bytes
        << '\n';
    if (!st.source_error.empty()) {
        out << "chip error: " << st.source_error << '\n';
        return 1;
    }
    return agg.summary().routed > 0 ? 0 : 1;
}

/// Bounds on a session script's `gen` line: far beyond any study's needs,
/// but a corrupted count can no longer ask for days of routing or overflow
/// the generator's int sink count.
constexpr long long kMaxScriptGenNets = 1'000'000;
constexpr long long kMaxScriptGenSinks = 4096;

/// One canonical result line, prefixed with the session net id instead of
/// format_results' loop index (same fields, same hexfloat formatting).
std::string result_line(NetId id, const NetRouteResult& r)
{
    std::string line = format_results(std::vector<NetRouteResult>{r});
    return std::to_string(id) + line.substr(line.find(' '));
}

int run_session(const CliOptions& opts, std::ostream& out,
                const std::string* input_text)
{
    if (opts.input_path.empty() && !input_text)
        throw std::invalid_argument("session requires --in <script file>");
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);

    SessionOptions sopts;
    sopts.pipeline.widths_r = opts.widths;
    sopts.pipeline.threads = opts.threads;
    sopts.pipeline.max_nodes_per_net = opts.max_nodes;
    sopts.pipeline.faults = FaultPlan::parse(opts.fault_spec);
    sopts.pipeline.deadline_ms = opts.deadline_ms;
    sopts.pipeline.admit_cap = opts.queue_cap;
    sopts.pipeline.memory_budget_bytes = opts.memory_budget;
    sopts.cache_capacity = opts.cache_capacity;
    sopts.use_cache = opts.session_cache;
    Session s(tech, sopts);

    std::istringstream is(read_input(opts, input_text));
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        std::istringstream ls(line);
        std::string cmd;
        ls >> cmd;
        if (cmd.empty() || cmd[0] == '#') continue;
        try {
            // Every integer is range-checked before it is narrowed, so an
            // out-of-range value is a script error instead of a silent wrap.
            const auto need = [&](const char* what, long long lo,
                                  long long hi) -> long long {
                long long v;
                if (!(ls >> v))
                    throw std::invalid_argument(std::string("expected ") + what);
                if (v < lo || v > hi)
                    throw std::invalid_argument(
                        std::string(what) + " " + std::to_string(v) +
                        " outside [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]");
                return v;
            };
            const auto coord = [&](const char* what) {
                return static_cast<Coord>(
                    need(what, -kMaxRoutableCoord, kMaxRoutableCoord));
            };
            const auto index = [&](const char* what) {
                return static_cast<std::size_t>(
                    need(what, 0, std::numeric_limits<long long>::max()));
            };
            const auto real = [&](const char* what) {
                double v;
                if (!(ls >> v) || !std::isfinite(v))
                    throw std::invalid_argument(std::string("expected finite ") +
                                                what);
                return v;
            };
            // True when another token follows; an optional argument that is
            // present must then parse.
            const auto more = [&] { return !(ls >> std::ws).eof(); };
            if (cmd == "gen") {
                const long long count = need("count", 1, kMaxScriptGenNets);
                const long long sinks = need("sinks", 1, kMaxScriptGenSinks);
                long long seed = static_cast<long long>(opts.seed);
                if (more())
                    seed = need("seed", std::numeric_limits<long long>::min(),
                                std::numeric_limits<long long>::max());
                // Workload-layer admission: GeneratedNetSource draws the
                // same RNG stream as random_nets, so the admitted nets --
                // and every output byte -- match the pre-NetSource CLI.
                GeneratedNetSource src(static_cast<std::uint64_t>(seed),
                                       static_cast<std::size_t>(count),
                                       opts.grid, static_cast<int>(sinks));
                for (const NetId id : s.add_batch(src))
                    out << "net " << result_line(id, s.result(id));
            } else if (cmd == "net") {
                Net n;
                const Coord sx = coord("source x");
                n.source = Point{sx, coord("source y")};
                while (more()) {
                    const Coord x = coord("sink x");
                    n.sinks.push_back(Point{x, coord("sink y")});
                }
                if (n.sinks.empty())
                    throw std::invalid_argument("net needs at least one sink");
                const NetId id = s.add(std::move(n));
                out << "net " << result_line(id, s.result(id));
            } else if (cmd == "move" || cmd == "add" || cmd == "remove" ||
                       cmd == "retech") {
                const NetId id = index("net id");
                EcoDelta d;
                if (cmd == "move") {
                    const std::size_t k = index("sink index");
                    const Coord px = coord("x");
                    d = EcoDelta::make_move(k, Point{px, coord("y")});
                } else if (cmd == "add") {
                    const Coord px = coord("x");
                    const Coord py = coord("y");
                    // A negative cap keeps its "technology default" meaning.
                    const double cap = more() ? real("cap") : -1.0;
                    d = EcoDelta::make_add(Point{px, py}, cap);
                } else if (cmd == "remove") {
                    d = EcoDelta::make_remove(index("sink index"));
                } else {
                    std::string name;
                    if (!(ls >> name))
                        throw std::invalid_argument("expected technology name");
                    // with_driver_scale rejects a scale that is not positive.
                    const double scale = more() ? real("driver scale") : 1.0;
                    d = EcoDelta::make_retech(technology_by_name(name, scale));
                }
                const EcoOutcome o = s.apply(id, d);
                out << "eco " << id << ' ' << cmd
                    << " inc=" << (o.incremental ? 1 : 0)
                    << " dq=" << o.dirty_quadrants << '\n'
                    << result_line(id, o.result);
            } else if (cmd == "route") {
                const NetId id = index("net id");
                out << result_line(id, s.result(id));
            } else if (cmd == "print") {
                for (NetId id = 0; id < s.size(); ++id)
                    out << result_line(id, s.result(id));
            } else if (cmd == "stats") {
                const RouteCacheStats& cs = s.cache().stats();
                out << "stats: nets " << s.size() << "  cache_size "
                    << s.cache().size() << "  hits " << cs.hits << "  misses "
                    << cs.misses << "  insertions " << cs.insertions
                    << "  evictions " << cs.evictions << '\n';
            } else {
                throw std::invalid_argument("unknown session command: " + cmd);
            }
            if (std::string rest; more() && ls >> rest)
                throw std::invalid_argument("unexpected token '" + rest + "'");
        } catch (const std::exception& e) {
            throw std::invalid_argument("session script line " +
                                        std::to_string(lineno) + ": " +
                                        e.what());
        }
    }
    return 0;
}

/// Translated twins of the common base batch for session `s`, request `r`:
/// identical signatures across sessions (so the shared cache shares), unique
/// placement per (s, r).
std::vector<Net> translated_twins(const std::vector<Net>& common, int s, int r)
{
    const Coord dx = static_cast<Coord>(1000 * s + 17 * r);
    const Coord dy = static_cast<Coord>(500 * s + 13 * r);
    std::vector<Net> nets;
    nets.reserve(common.size());
    for (const Net& n : common) {
        Net m = n;
        m.source = Point{n.source.x + dx, n.source.y + dy};
        for (Point& p : m.sinks) p = Point{p.x + dx, p.y + dy};
        nets.push_back(std::move(m));
    }
    return nets;
}

/// The deterministic ECO move of session `s`, request `r` in the serve
/// scripts.
EcoDelta script_move(const CliOptions& opts, int s, int r)
{
    return EcoDelta::make_move(
        static_cast<std::size_t>(r) % static_cast<std::size_t>(opts.sinks),
        Point{static_cast<Coord>(100 + 31 * r + 11 * s),
              static_cast<Coord>(2000 - 17 * r + 7 * s)});
}

/// Overload-mode serve: the same per-session scripts, but driven against a
/// service with a queue cap / deadlines / a memory budget, to demonstrate
/// graceful degradation instead of byte-identity (WHICH requests get
/// refused depends on arrival timing, so there is no serial reference to
/// diff; the per-net statuses themselves are still drawn from the ladder).
/// Clients treat OverloadError as backpressure -- count and move on, never
/// crash or hang.  Everything numeric is '#'-prefixed telemetry except the
/// final `serve overload:` verdict line; exits nonzero only if a client
/// failed with a real error or a net came back with an unknown status.
int run_serve_overload(const CliOptions& opts, const Technology& tech,
                       const SessionOptions& base,
                       const std::vector<Net>& common, std::ostream& out)
{
    ServiceOptions so;
    so.session = base;
    so.threads = opts.threads;
    so.cache_capacity = opts.cache_capacity;
    so.queue_cap = opts.queue_cap;
    so.memory_budget_bytes = opts.memory_budget;
    SessionService svc(tech, so);

    const auto n_sessions = static_cast<std::size_t>(opts.sessions);
    std::vector<std::array<std::uint64_t, kRouteStatusCount>> tallies(
        n_sessions, std::array<std::uint64_t, kRouteStatusCount>{});
    std::vector<std::uint64_t> rejected_requests(n_sessions, 0);
    std::vector<std::string> errors(n_sessions);

    std::vector<std::thread> clients;
    clients.reserve(n_sessions);
    for (int s = 0; s < opts.sessions; ++s) {
        const SessionId sid = svc.open();
        clients.emplace_back([&, s, sid] {
            const auto si = static_cast<std::size_t>(s);
            std::size_t admitted = 0;
            try {
                for (int r = 0; r < opts.requests; ++r) {
                    try {
                        if (r % 2 == 0 || admitted == 0) {
                            const std::vector<NetId> ids = svc.add_batch(
                                sid, translated_twins(common, s, r));
                            admitted += ids.size();
                            for (const NetId id : ids)
                                ++tallies[si][static_cast<std::size_t>(
                                    svc.result(sid, id).status)];
                        } else {
                            const NetId id = static_cast<NetId>(
                                static_cast<std::size_t>(r * 7) % admitted);
                            const EcoOutcome o =
                                svc.apply(sid, id, script_move(opts, s, r));
                            ++tallies[si][static_cast<std::size_t>(
                                o.result.status)];
                        }
                    } catch (const OverloadError&) {
                        // Backpressure, not failure: the request was refused
                        // whole before any work ran.  A real client would
                        // retry with backoff; the stress just counts it.
                        ++rejected_requests[si];
                    }
                }
            } catch (const std::exception& e) {
                errors[si] = e.what();
            }
        });
    }
    for (std::thread& c : clients) c.join();

    std::array<std::uint64_t, kRouteStatusCount> totals{};
    std::uint64_t rejected = 0;
    for (std::size_t s = 0; s < n_sessions; ++s) {
        for (std::size_t i = 0; i < kRouteStatusCount; ++i)
            totals[i] += tallies[s][i];
        rejected += rejected_requests[s];
    }

    const ServiceStats st = svc.stats();
    out << "# serve stats: batches " << st.batches << "  applies " << st.applies
        << "  hits " << st.cache_hits << "  shared " << st.cache_shared
        << "  evictions " << st.cache_evictions << "  contended "
        << st.cache_contended << '\n'
        << "# serve overload stats: rejected_overload " << st.rejected_overload
        << "  pressure_evictions " << st.pressure_evictions << '\n'
        << "# serve cache: size " << svc.cache().size() << "  resident_bytes "
        << svc.cache().resident_bytes() << '\n';

    bool bad = false;
    out << "serve overload: sessions=" << opts.sessions
        << " requests=" << opts.requests << " queue_cap=" << opts.queue_cap
        << " rejected_requests=" << rejected;
    for (std::size_t i = 0; i < kRouteStatusCount; ++i) {
        const std::string name = to_string(static_cast<RouteStatus>(i));
        if (name == "?") bad = bad || totals[i] != 0;
        out << ' ' << name << '=' << totals[i];
    }
    for (std::size_t s = 0; s < n_sessions; ++s) {
        if (errors[s].empty()) continue;
        bad = true;
        out << "\nsession " << s << " error: " << errors[s];
    }
    out << (bad ? " verdict=FAIL" : " verdict=ok") << '\n';
    return bad ? 1 : 0;
}

int run_serve(const CliOptions& opts, std::ostream& out)
{
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);

    SessionOptions base;
    base.pipeline.widths_r = opts.widths;
    base.pipeline.threads = opts.threads;
    base.pipeline.max_nodes_per_net = opts.max_nodes;
    base.pipeline.faults = FaultPlan::parse(opts.fault_spec);
    base.pipeline.deadline_ms = opts.deadline_ms;
    base.cache_capacity = opts.cache_capacity;
    base.use_cache = opts.session_cache;

    // Every session admits translated twins of one common base batch, so the
    // sessions' signatures collide and the shared cache actually shares.
    const std::vector<Net> common =
        random_nets(opts.seed, opts.random_count, opts.grid, opts.sinks);

    // Lifecycle pressure switches serve into overload mode: graceful-
    // degradation stress instead of the byte-identity check (whose serial
    // reference is meaningless when admission depends on arrival timing).
    if (opts.queue_cap > 0 || opts.deadline_ms > 0.0 ||
        base.pipeline.faults.virtual_clock() || opts.memory_budget > 0)
        return run_serve_overload(opts, tech, base, common, out);

    // One session's deterministic request script -- translated-twin batch
    // admissions on even requests, ECO sink moves on odd ones -- producing a
    // per-request transcript.  The same script drives the concurrent service
    // run and the serial replay; only who routes may differ, never the bytes.
    const auto run_script =
        [&](int s,
            const std::function<std::vector<NetId>(const std::vector<Net>&)>&
                add_batch,
            const std::function<NetRouteResult(NetId)>& result,
            const std::function<EcoOutcome(NetId, const EcoDelta&)>& apply) {
            std::string t;
            std::size_t admitted = 0;
            for (int r = 0; r < opts.requests; ++r) {
                if (r % 2 == 0 || admitted == 0) {
                    const std::vector<NetId> ids =
                        add_batch(translated_twins(common, s, r));
                    admitted += ids.size();
                    for (const NetId id : ids)
                        t += "net " + result_line(id, result(id));
                } else {
                    const NetId id =
                        static_cast<NetId>(static_cast<std::size_t>(r * 7) %
                                           admitted);
                    const EcoOutcome o = apply(id, script_move(opts, s, r));
                    t += "eco " + std::to_string(id) +
                         " move inc=" + std::to_string(o.incremental ? 1 : 0) +
                         "\n" + result_line(id, o.result);
                }
            }
            return t;
        };

    // Concurrent run: one client thread per session, all through the shared
    // service (one cache, one pool).
    ServiceOptions so;
    so.session = base;
    so.threads = opts.threads;
    so.cache_capacity = opts.cache_capacity;
    SessionService svc(tech, so);
    std::vector<std::string> got(static_cast<std::size_t>(opts.sessions));
    std::vector<std::thread> clients;
    clients.reserve(got.size());
    for (int s = 0; s < opts.sessions; ++s) {
        const SessionId sid = svc.open();
        clients.emplace_back([&, s, sid] {
            try {
                got[static_cast<std::size_t>(s)] = run_script(
                    s,
                    [&](const std::vector<Net>& nets) {
                        // Admissions go through the workload layer: the
                        // NetSource overload chunks (one chunk here) and
                        // takes an admission ticket per chunk.
                        VectorNetSource src(nets);
                        return svc.add_batch(sid, src);
                    },
                    [&](NetId id) { return svc.result(sid, id); },
                    [&](NetId id, const EcoDelta& d) {
                        return svc.apply(sid, id, d);
                    });
            } catch (const std::exception& e) {
                got[static_cast<std::size_t>(s)] =
                    std::string("error: ") + e.what() + '\n';
            }
        });
    }
    for (std::thread& c : clients) c.join();

    // Serial replay: the same scripts through independent single sessions.
    bool identical = true;
    for (int s = 0; s < opts.sessions; ++s) {
        Session session(tech, base);
        const std::string want = run_script(
            s,
            [&](const std::vector<Net>& nets) {
                VectorNetSource src(nets);
                return session.add_batch(src);
            },
            [&](NetId id) { return session.result(id); },
            [&](NetId id, const EcoDelta& d) { return session.apply(id, d); });
        const bool match = got[static_cast<std::size_t>(s)] == want;
        identical = identical && match;
        // The serial transcript is the deterministic reference output (equal
        // to the concurrent one whenever the verdict is yes), so the printed
        // bytes can be diffed across runs and thread counts.
        out << "session " << s << (match ? "" : " MISMATCH") << '\n' << want;
    }

    // Schedule-dependent telemetry ('#'-prefixed: excluded from CI diffs).
    const ServiceStats st = svc.stats();
    out << "# serve stats: batches " << st.batches << "  applies " << st.applies
        << "  hits " << st.cache_hits << "  shared " << st.cache_shared
        << "  evictions " << st.cache_evictions << "  contended "
        << st.cache_contended << '\n'
        << "# serve cache: size " << svc.cache().size() << "  resident_bytes "
        << svc.cache().resident_bytes() << '\n';

    out << "serve: sessions=" << opts.sessions << " requests=" << opts.requests
        << " identical=" << (identical ? "yes" : "no") << '\n';
    return identical ? 0 : 1;
}

int run_simulate(const CliOptions& opts, std::ostream& out,
                 const std::string* input_text)
{
    if (opts.input_path.empty() && !input_text)
        throw std::invalid_argument("simulate requires --in <trees file>");
    const Technology tech = technology_by_name(opts.tech, opts.driver_scale);
    const SimMethod method = method_by_name(opts.method);
    const std::vector<RoutingTree> trees = parse_tree_blocks(read_input(opts, input_text));

    TextTable t({"tree", "nodes", "length", "mean delay (ns)", "max delay (ns)"});
    for (std::size_t i = 0; i < trees.size(); ++i) {
        const FlatTree ft(trees[i]);
        const NetSummary s = summarize_net(ft);
        const DelayReport d = measure_delay(ft, tech, method, opts.threshold, opts.rlc);
        t.add_row({std::to_string(i), std::to_string(s.nodes),
                   std::to_string(s.length), fmt_ns(d.mean), fmt_ns(d.max)});
    }
    t.print(out);
    return 0;
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args)
{
    if (args.empty()) throw std::invalid_argument("missing command\n" + cli_usage());
    CliOptions opts;
    opts.command = args[0];
    if (opts.command == "--help" || opts.command == "-h")
        throw std::invalid_argument(cli_usage());
    if (opts.command != "gen" && opts.command != "route" && opts.command != "flow" &&
        opts.command != "simulate" && opts.command != "batch" &&
        opts.command != "chip" && opts.command != "session" &&
        opts.command != "serve")
        throw std::invalid_argument("unknown command: " + opts.command + '\n' +
                                    cli_usage());

    // Numeric parsing is strict and signed-aware: trailing junk, overflow,
    // and a negative value for an unsigned knob all reject with the usage
    // text, so a typo like `--sessions=abc` or `--queue-cap -1` can never be
    // silently truncated into a huge or zero limit.
    const auto to_long = [](const std::string& flag, const std::string& v) {
        try {
            std::size_t used = 0;
            const long n = std::stol(v, &used);
            if (used != v.size()) throw std::invalid_argument(v);
            return n;
        } catch (const std::exception&) {
            throw std::invalid_argument("bad integer for " + flag + ": '" + v +
                                        "'\n" + cli_usage());
        }
    };
    // The int-typed knobs (counts, widths, threads, the int32 grid) take
    // only values inside int's range: a static_cast would wrap 4294967297
    // to 1.
    const auto to_int = [&to_long](const std::string& flag, const std::string& v) {
        const long n = to_long(flag, v);
        if (n < std::numeric_limits<int>::min() || n > std::numeric_limits<int>::max())
            throw std::invalid_argument("bad integer for " + flag + ": '" + v +
                                        "'\n" + cli_usage());
        return static_cast<int>(n);
    };
    const auto to_size = [&to_long](const std::string& flag, const std::string& v) {
        const long n = to_long(flag, v);
        if (n < 0)
            throw std::invalid_argument(flag + " must be >= 0, got " + v + '\n' +
                                        cli_usage());
        return static_cast<std::size_t>(n);
    };
    const auto to_double = [](const std::string& flag, const std::string& v) {
        try {
            std::size_t used = 0;
            const double d = std::stod(v, &used);
            if (used != v.size()) throw std::invalid_argument(v);
            return d;
        } catch (const std::exception&) {
            throw std::invalid_argument("bad number for " + flag + ": '" + v +
                                        "'\n" + cli_usage());
        }
    };

    for (std::size_t i = 1; i < args.size(); ++i) {
        // Both `--flag value` and `--flag=value` spellings are accepted.
        std::string a = args[i];
        std::string inline_value;
        bool has_inline = false;
        if (a.rfind("--", 0) == 0) {
            const std::size_t eq = a.find('=');
            if (eq != std::string::npos) {
                inline_value = a.substr(eq + 1);
                a.resize(eq);
                has_inline = true;
            }
        }
        const auto value = [&]() -> std::string {
            if (has_inline) return inline_value;
            if (i + 1 >= args.size())
                throw std::invalid_argument(a + " requires a value");
            return args[++i];
        };
        if (a == "--in") opts.input_path = value();
        else if (a == "--random") opts.random_count = to_int(a, value());
        else if (a == "--sinks") opts.sinks = to_int(a, value());
        else if (a == "--grid") opts.grid = to_int(a, value());
        else if (a == "--seed") opts.seed = static_cast<std::uint64_t>(to_size(a, value()));
        else if (a == "--algo") opts.algo = value();
        else if (a == "--tech") opts.tech = value();
        else if (a == "--driver-scale") opts.driver_scale = to_double(a, value());
        else if (a == "--widths") opts.widths = to_int(a, value());
        else if (a == "--sizer") opts.sizer = value();
        else if (a == "--method") opts.method = value();
        else if (a == "--threshold") opts.threshold = to_double(a, value());
        else if (a == "--rlc") opts.rlc = true;
        else if (a == "--out") opts.out_path = value();
        else if (a == "--threads") opts.threads = to_int(a, value());
        else if (a == "--max-nodes") opts.max_nodes = to_size(a, value());
        else if (a == "--fault-inject") opts.fault_spec = value();
        else if (a == "--deadline-ms") opts.deadline_ms = to_double(a, value());
        else if (a == "--queue-cap") opts.queue_cap = to_size(a, value());
        else if (a == "--memory-budget") opts.memory_budget = to_size(a, value());
        else if (a == "--cache-capacity") opts.cache_capacity = to_size(a, value());
        else if (a == "--no-cache") opts.session_cache = false;
        else if (a == "--sessions") opts.sessions = to_int(a, value());
        else if (a == "--requests") opts.requests = to_int(a, value());
        else if (a == "--chunk-nets") opts.chunk_nets = to_size(a, value());
        else if (a == "--top") opts.top = to_size(a, value());
        else throw std::invalid_argument("unknown option: " + a + '\n' + cli_usage());
    }

    if (opts.random_count < 1) throw std::invalid_argument("--random must be >= 1");
    if (opts.sinks < 1) throw std::invalid_argument("--sinks must be >= 1");
    if (opts.grid < 2) throw std::invalid_argument("--grid must be >= 2");
    if (opts.widths < 1) throw std::invalid_argument("--widths must be >= 1");
    if (opts.threshold <= 0.0 || opts.threshold >= 1.0)
        throw std::invalid_argument("--threshold must be in (0,1)");
    if (!std::isfinite(opts.driver_scale) || opts.driver_scale <= 0.0)
        throw std::invalid_argument("--driver-scale must be finite and positive");
    if (opts.max_nodes > 0 && opts.max_nodes < 2)
        throw std::invalid_argument("--max-nodes must be 0 or >= 2");
    if (opts.deadline_ms < 0.0)
        throw std::invalid_argument("--deadline-ms must be >= 0\n" + cli_usage());
    if (opts.sessions < 1) throw std::invalid_argument("--sessions must be >= 1");
    if (opts.requests < 1) throw std::invalid_argument("--requests must be >= 1");
    if (!opts.fault_spec.empty()) FaultPlan::parse(opts.fault_spec);  // validate
    return opts;
}

int run_cli(const CliOptions& opts, std::ostream& out, const std::string* input_text)
{
    if (opts.command == "gen") return run_gen(opts, out);
    if (opts.command == "route") return run_route(opts, out, input_text);
    if (opts.command == "flow") return run_flow(opts, out, input_text);
    if (opts.command == "simulate") return run_simulate(opts, out, input_text);
    if (opts.command == "batch") return run_batch(opts, out, input_text);
    if (opts.command == "chip") return run_chip(opts, out, input_text);
    if (opts.command == "session") return run_session(opts, out, input_text);
    if (opts.command == "serve") return run_serve(opts, out);
    throw std::invalid_argument("unknown command: " + opts.command);
}

}  // namespace cong93
