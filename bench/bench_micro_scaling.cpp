// Algorithm scaling micro-benchmarks (google-benchmark): A-tree construction
// vs sink count, OWSA vs width count (the O(n^{r-1}) of Theorem 5),
// GREWSA vs sink count (incremental engine vs the O(n^2)-per-sweep
// reference), batch throughput, and the two simulators vs tree size.
//
// After the google-benchmark suite runs, two deterministic scaling studies
// are written so the perf trajectory is machine-readable across PRs:
// BENCH_wiresize.json (net size vs wall-clock for the reference, incremental
// and parallel-batch GREWSA paths) and BENCH_atree.json (A-tree construction
// wall-clock, Mode::reference full-rescan vs Mode::indexed cached queries,
// with bit-identity checks for both heuristic policies).
//
// BENCH_pipeline.json (the route_batch throughput study: end-to-end nets/sec
// at 1/2/4/8 threads with byte-identity vs the serial run, a zero expected
// failure count and a compiles_per_net == 1.0 witness per row, a
// fault-injection determinism probe -- serial vs threaded failure counts and
// byte-identity under a soak plan -- and the workspace-arena reuse proof).
//
// BENCH_eco.json (the session-engine study: ECO single-sink-move repair
// latency vs from-scratch route_single on quadrant-skewed and uniform
// 120-sink nets with bit-identity gates, hash-consed route-cache throughput
// on duplicate-laden batches at controlled dup ratios with byte-identity vs
// the cache-off run, and the serial-vs-4-thread cache determinism probe).
//
// BENCH_chip.json (the chip workload study: a 100k-net generated design
// streamed through route_stream in 512-net chunks -- nets/sec at 1 and 4
// threads with byte-identity of the serialized results, chunked vs
// one-shot byte-identity, the bounded-memory witness comparing workspace
// resident bytes against a 10x smaller design, and the measured-vs-
// bounding-box delay-model band with planted RAT violations for WNS/TNS).
//
//   --json=PATH          output path for the wiresize study (default BENCH_wiresize.json)
//   --atree-json=PATH    output path for the A-tree study (default BENCH_atree.json)
//   --pipeline-json=PATH output path for the pipeline study (default BENCH_pipeline.json)
//   --eco-json=PATH      output path for the session study (default BENCH_eco.json)
//   --serve-json=PATH    output path for the service overload study
//                        (default BENCH_serve.json)
//   --chip-json=PATH     output path for the chip workload study
//                        (default BENCH_chip.json)
//   --json-only          skip the google-benchmark suite, only write the studies
//   --smoke              small-size studies only (CI smoke job)
//   --skip-wiresize      do not (re)generate the wiresize study
//   --skip-atree         do not (re)generate the A-tree study
//   --threads-list=T,..  thread counts swept by the pipeline scaling rows and
//                        the eco cache determinism probe (default 1,2,4,8)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <limits>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "atree/atree.h"
#include "atree/generalized.h"
#include "batch/batch.h"
#include "batch/pipeline.h"
#include "bench_common.h"
#include "sim/rc_tree.h"
#include "netgen/netgen.h"
#include "report/chip_report.h"
#include "rtree/io.h"
#include "report/table.h"
#include "session/service.h"
#include "session/session.h"
#include "sim/delay_measure.h"
#include "sim/two_pole.h"
#include "tech/technology.h"
#include "wiresize/combined.h"
#include "wiresize/grewsa.h"
#include "wiresize/owsa.h"
#include "workload/net_source.h"
#include "workload/stream.h"

namespace cong93 {
namespace {

void BM_AtreeBuild(benchmark::State& state)
{
    const int sinks = static_cast<int>(state.range(0));
    const auto nets = random_nets(1, 16, kMcmGrid, sinks);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(build_atree_general(nets[i % nets.size()]));
        ++i;
    }
}
BENCHMARK(BM_AtreeBuild)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_AtreeBuildReference(benchmark::State& state)
{
    // The seed query path (full segment rescan per root per step): the
    // baseline the indexed engine is measured against.
    const int sinks = static_cast<int>(state.range(0));
    const auto nets = random_nets(1, 16, kMcmGrid, sinks);
    AtreeOptions opts;
    opts.mode = Mode::reference;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(build_atree_general(nets[i % nets.size()], opts));
        ++i;
    }
}
BENCHMARK(BM_AtreeBuildReference)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Owsa(benchmark::State& state)
{
    const int r = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const Net net = random_nets(2, 1, kMcmGrid, 16)[0];
    const RoutingTree tree = build_atree_general(net).tree;
    const SegmentDecomposition segs(tree);
    const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(r));
    for (auto _ : state) benchmark::DoNotOptimize(owsa(ctx));
}
BENCHMARK(BM_Owsa)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_Grewsa(benchmark::State& state)
{
    const int sinks = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const Net net = random_nets(3, 1, kMcmGrid, sinks)[0];
    const RoutingTree tree = build_atree_general(net).tree;
    const SegmentDecomposition segs(tree);
    const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(4));
    for (auto _ : state) benchmark::DoNotOptimize(grewsa_from_min(ctx));
}
BENCHMARK(BM_Grewsa)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_GrewsaReference(benchmark::State& state)
{
    // The seed evaluation path (full theta/phi/psi re-derivation per
    // refinement): the baseline the incremental engine is measured against.
    const int sinks = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const Net net = random_nets(3, 1, kMcmGrid, sinks)[0];
    const RoutingTree tree = build_atree_general(net).tree;
    const SegmentDecomposition segs(tree);
    const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(4));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            grewsa_reference(ctx, min_assignment(ctx.segment_count())));
}
BENCHMARK(BM_GrewsaReference)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_GrewsaOwsa(benchmark::State& state)
{
    const int r = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const Net net = random_nets(2, 1, kMcmGrid, 16)[0];
    const RoutingTree tree = build_atree_general(net).tree;
    const SegmentDecomposition segs(tree);
    const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(r));
    for (auto _ : state) benchmark::DoNotOptimize(grewsa_owsa(ctx));
}
BENCHMARK(BM_GrewsaOwsa)->Arg(2)->Arg(4)->Arg(6);

void BM_BatchGrewsaOwsa(benchmark::State& state)
{
    // Whole-batch throughput of the thread-pool driver (one grewsa_owsa per
    // net); threads = CONG93_THREADS or hardware concurrency.
    const int nets_n = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const auto nets = random_nets(5, nets_n, kMcmGrid, 16);
    std::vector<RoutingTree> storage;
    std::vector<SegmentDecomposition> trees;
    storage.reserve(nets.size());
    trees.reserve(nets.size());
    for (const Net& net : nets) {
        storage.push_back(build_atree_general(net).tree);
        trees.emplace_back(storage.back());
    }
    for (auto _ : state) {
        const auto delays = batch_map<double>(trees.size(), [&](std::size_t i) {
            const WiresizeContext ctx(trees[i], tech, WidthSet::uniform_steps(4));
            return grewsa_owsa(ctx).delay;
        });
        benchmark::DoNotOptimize(delays);
    }
}
BENCHMARK(BM_BatchGrewsaOwsa)->Arg(8)->Arg(32);

void BM_TwoPoleSim(benchmark::State& state)
{
    const int sinks = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const Net net = random_nets(4, 1, kMcmGrid, sinks)[0];
    const RoutingTree tree = build_atree_general(net).tree;
    const RcTree rc = RcTree::from_routing_tree(tree, tech);
    for (auto _ : state) benchmark::DoNotOptimize(two_pole_sink_delays(rc));
}
BENCHMARK(BM_TwoPoleSim)->Arg(8)->Arg(32);

void BM_TransientSim(benchmark::State& state)
{
    const int sinks = static_cast<int>(state.range(0));
    const Technology tech = mcm_technology();
    const Net net = random_nets(4, 1, kMcmGrid, sinks)[0];
    const RoutingTree tree = build_atree_general(net).tree;
    for (auto _ : state)
        benchmark::DoNotOptimize(measure_delay(tree, tech, SimMethod::transient));
}
BENCHMARK(BM_TransientSim)->Arg(8)->Arg(32);

// ---------------------------------------------------------------------------
// BENCH_wiresize.json scaling study
// ---------------------------------------------------------------------------

/// Best-of-k wall-clock of fn(), with k sized so the total stays ~50ms.
/// Runs that already take over a second are measured once (the slow
/// reference baselines at large sizes would otherwise dominate the study).
template <typename Fn>
double time_best(Fn&& fn)
{
    const double warmup = bench::time_seconds(fn);
    if (warmup > 1.0) return warmup;
    const int reps = std::clamp(static_cast<int>(0.05 / std::max(warmup, 1e-9)), 2, 15);
    double best = warmup;
    for (int i = 0; i < reps; ++i) best = std::min(best, bench::time_seconds(fn));
    return best;
}

struct ScalingRow {
    int sinks = 0;
    std::size_t segments = 0;
    double reference_s = 0.0;
    double incremental_s = 0.0;
    bool fixpoint_identical = false;
    double speedup() const
    {
        return incremental_s > 0.0 ? reference_s / incremental_s : 0.0;
    }
};

bool write_scaling_json(const std::string& path)
{
    constexpr int kR = 4;
    const Technology tech = mcm_technology();

    std::vector<ScalingRow> rows;
    for (const int sinks : {12, 25, 50, 100, 200}) {
        const Net net = random_nets(1993, 1, kMcmGrid, sinks)[0];
        const RoutingTree tree = build_atree_general(net).tree;
        const SegmentDecomposition segs(tree);
        const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(kR));

        ScalingRow row;
        row.sinks = sinks;
        row.segments = segs.count();
        GrewsaResult ref, inc;
        row.reference_s = time_best(
            [&] { ref = grewsa_reference(ctx, min_assignment(segs.count())); });
        row.incremental_s = time_best([&] { inc = grewsa_from_min(ctx); });
        row.fixpoint_identical =
            ref.assignment == inc.assignment && ref.delay == inc.delay;
        rows.push_back(row);
        std::cout << "grewsa scaling: " << row.segments << " segments  reference "
                  << fmt_sci(row.reference_s, 2) << "s  incremental "
                  << fmt_sci(row.incremental_s, 2) << "s  speedup "
                  << fmt_fixed(row.speedup(), 1) << "x  identical "
                  << (row.fixpoint_identical ? "yes" : "NO") << '\n';
    }

    // Batch throughput: the full grewsa_owsa flow over a fixed batch,
    // serial vs thread pool, verifying bit-identical results.
    constexpr int kBatchNets = 32;
    constexpr int kBatchSinks = 16;
    const auto nets = random_nets(7, kBatchNets, kMcmGrid, kBatchSinks);
    std::vector<RoutingTree> storage;
    std::vector<SegmentDecomposition> trees;
    storage.reserve(nets.size());
    trees.reserve(nets.size());
    for (const Net& net : nets) {
        storage.push_back(build_atree_general(net).tree);
        trees.emplace_back(storage.back());
    }
    const auto run_batch = [&](int threads) {
        return batch_map<double>(
            trees.size(),
            [&](std::size_t i) {
                const WiresizeContext ctx(trees[i], tech,
                                          WidthSet::uniform_steps(kR));
                return grewsa_owsa(ctx).delay;
            },
            threads);
    };
    const int threads = default_thread_count();
    std::vector<double> serial_delays, parallel_delays;
    const double serial_s = time_best([&] { serial_delays = run_batch(1); });
    const double parallel_s =
        time_best([&] { parallel_delays = run_batch(threads); });
    const bool batch_identical = serial_delays == parallel_delays;
    std::cout << "batch grewsa_owsa: " << kBatchNets << " nets  serial "
              << fmt_sci(serial_s, 2) << "s  parallel(" << threads << " threads) "
              << fmt_sci(parallel_s, 2) << "s  identical "
              << (batch_identical ? "yes" : "NO") << '\n';

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    out << "{\n"
        << "  \"benchmark\": \"wiresize_scaling\",\n"
        << "  \"generated_by\": \"bench_micro_scaling\",\n"
        << "  \"technology\": \"mcm\",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"widths_r\": " << kR << ",\n"
        << "  \"grewsa\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScalingRow& r = rows[i];
        out << "    {\"sinks\": " << r.sinks << ", \"segments\": " << r.segments
            << ", \"reference_s\": " << fmt_sci(r.reference_s, 4)
            << ", \"incremental_s\": " << fmt_sci(r.incremental_s, 4)
            << ", \"speedup\": " << fmt_fixed(r.speedup(), 2)
            << ", \"fixpoint_identical\": "
            << (r.fixpoint_identical ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << '\n';
    }
    out << "  ],\n"
        << "  \"batch\": {\"nets\": " << kBatchNets
        << ", \"sinks\": " << kBatchSinks << ", \"threads\": " << threads
        << ", \"serial_s\": " << fmt_sci(serial_s, 4)
        << ", \"parallel_s\": " << fmt_sci(parallel_s, 4)
        << ", \"identical\": " << (batch_identical ? "true" : "false") << "}\n"
        << "}\n";
    std::cout << "wrote " << path << '\n';
    return true;
}

// ---------------------------------------------------------------------------
// BENCH_atree.json scaling study
// ---------------------------------------------------------------------------

struct AtreeRow {
    int sinks = 0;
    double reference_s = 0.0;
    double indexed_s = 0.0;
    bool identical = false;
    double speedup() const
    {
        return indexed_s > 0.0 ? reference_s / indexed_s : 0.0;
    }
};

bool results_identical(const AtreeResult& a, const AtreeResult& b)
{
    return format_tree(a.tree) == format_tree(b.tree) &&
           a.safe_moves == b.safe_moves && a.heuristic_moves == b.heuristic_moves &&
           a.cost == b.cost && a.sb_total == b.sb_total &&
           a.qmst_cost == b.qmst_cost && a.sb_qmst_total == b.sb_qmst_total;
}

AtreeRow time_atree_modes(const Net& net, HeuristicPolicy policy, int sinks)
{
    AtreeOptions ref_opts, idx_opts;
    ref_opts.policy = idx_opts.policy = policy;
    ref_opts.mode = Mode::reference;
    idx_opts.mode = Mode::indexed;

    AtreeRow row;
    row.sinks = sinks;
    std::optional<AtreeResult> ref, idx;
    row.reference_s = time_best([&] { ref = build_atree(net, ref_opts); });
    row.indexed_s = time_best([&] { idx = build_atree(net, idx_opts); });
    row.identical = results_identical(*ref, *idx);
    return row;
}

bool write_atree_json(const std::string& path, bool smoke)
{
    // Corner-source nets keep all sinks in one quadrant, so a single A-tree
    // construction carries the whole net -- the harshest case for the
    // reference's full-rescan query path.
    const std::vector<int> sizes =
        smoke ? std::vector<int>{12, 25} : std::vector<int>{12, 25, 50, 100, 200, 400};

    std::vector<AtreeRow> rows;
    for (const int sinks : sizes) {
        const Net net = random_corner_nets(93, 1, kMcmGrid, sinks)[0];
        const AtreeRow row =
            time_atree_modes(net, HeuristicPolicy::farthest_corner, sinks);
        rows.push_back(row);
        std::cout << "atree scaling: " << row.sinks << " sinks  reference "
                  << fmt_sci(row.reference_s, 2) << "s  indexed "
                  << fmt_sci(row.indexed_s, 2) << "s  speedup "
                  << fmt_fixed(row.speedup(), 1) << "x  identical "
                  << (row.identical ? "yes" : "NO") << '\n';
    }

    // The min_suboptimality policy adds the per-pair df estimate to each
    // heuristic move; cross-check identity (and timing) at moderate sizes.
    std::vector<AtreeRow> minsb_rows;
    for (const int sinks : sizes) {
        if (sinks > 100) continue;
        const Net net = random_corner_nets(93, 1, kMcmGrid, sinks)[0];
        const AtreeRow row =
            time_atree_modes(net, HeuristicPolicy::min_suboptimality, sinks);
        minsb_rows.push_back(row);
        std::cout << "atree min_sb:  " << row.sinks << " sinks  reference "
                  << fmt_sci(row.reference_s, 2) << "s  indexed "
                  << fmt_sci(row.indexed_s, 2) << "s  speedup "
                  << fmt_fixed(row.speedup(), 1) << "x  identical "
                  << (row.identical ? "yes" : "NO") << '\n';
    }

    // Batch throughput: whole A-tree constructions over a fixed batch of
    // general nets, serial vs thread pool, verifying identical trees.
    constexpr int kBatchNets = 16;
    constexpr int kBatchSinks = 24;
    const auto nets = random_nets(17, kBatchNets, kMcmGrid, kBatchSinks);
    const auto run_batch = [&](int threads) {
        return batch_map<std::string>(
            nets.size(),
            [&](std::size_t i) { return format_tree(build_atree_general(nets[i]).tree); },
            threads);
    };
    const int threads = default_thread_count();
    std::vector<std::string> serial_trees, parallel_trees;
    const double serial_s = time_best([&] { serial_trees = run_batch(1); });
    const double parallel_s =
        time_best([&] { parallel_trees = run_batch(threads); });
    const bool batch_identical = serial_trees == parallel_trees;
    std::cout << "batch atree: " << kBatchNets << " nets  serial "
              << fmt_sci(serial_s, 2) << "s  parallel(" << threads << " threads) "
              << fmt_sci(parallel_s, 2) << "s  identical "
              << (batch_identical ? "yes" : "NO") << '\n';

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    const auto write_rows = [&](const std::vector<AtreeRow>& rs) {
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const AtreeRow& r = rs[i];
            out << "    {\"sinks\": " << r.sinks
                << ", \"reference_s\": " << fmt_sci(r.reference_s, 4)
                << ", \"indexed_s\": " << fmt_sci(r.indexed_s, 4)
                << ", \"speedup\": " << fmt_fixed(r.speedup(), 2)
                << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
                << (i + 1 < rs.size() ? "," : "") << '\n';
        }
    };
    out << "{\n"
        << "  \"benchmark\": \"atree_scaling\",\n"
        << "  \"generated_by\": \"bench_micro_scaling\",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"nets\": \"corner_source_seed93\",\n"
        << "  \"atree\": [\n";
    write_rows(rows);
    out << "  ],\n"
        << "  \"min_suboptimality_identity\": [\n";
    write_rows(minsb_rows);
    out << "  ],\n"
        << "  \"batch\": {\"nets\": " << kBatchNets
        << ", \"sinks\": " << kBatchSinks << ", \"threads\": " << threads
        << ", \"serial_s\": " << fmt_sci(serial_s, 4)
        << ", \"parallel_s\": " << fmt_sci(parallel_s, 4)
        << ", \"identical\": " << (batch_identical ? "true" : "false") << "}\n"
        << "}\n";
    std::cout << "wrote " << path << '\n';

    bool all_identical = batch_identical;
    for (const AtreeRow& r : rows) all_identical = all_identical && r.identical;
    for (const AtreeRow& r : minsb_rows) all_identical = all_identical && r.identical;
    return all_identical;
}

// ---------------------------------------------------------------------------
// BENCH_pipeline.json throughput study
// ---------------------------------------------------------------------------

struct PipelineRow {
    int threads = 0;
    double seconds = 0.0;
    double nets_per_sec = 0.0;
    double speedup = 0.0;
    bool identical = false;
    std::uint64_t failed = 0;  ///< nets below the ok rung (must be 0 here)
    double compiles_per_net = 0.0;  ///< must be exactly 1.0 on a clean batch
};

bool write_pipeline_json(const std::string& path, bool smoke,
                         const std::vector<int>& threads_list)
{
    const Technology tech = mcm_technology();

    // --- end-to-end route_batch scaling ---------------------------------
    // Byte-identity (hexfloat serialization) of every thread count against
    // the serial run; speedup is bounded by the container's core count,
    // recorded below as hardware_concurrency.
    const int batch_nets = smoke ? 12 : 64;
    const int batch_sinks = smoke ? 10 : 16;
    const auto nets = random_nets(29, batch_nets, kMcmGrid, batch_sinks);
    PipelineOptions serial_opts;
    serial_opts.threads = 1;
    std::vector<Workspace> serial_ws;
    std::vector<NetRouteResult> serial_results;
    const double serial_s = time_best(
        [&] { serial_results = route_batch(nets, tech, serial_opts, nullptr,
                                           &serial_ws); });
    const std::string serial_fmt = format_results(serial_results);

    std::vector<PipelineRow> pipeline_rows;
    for (const int threads : threads_list) {
        PipelineOptions opts;
        opts.threads = threads;
        std::vector<Workspace> ws;
        std::vector<NetRouteResult> results;
        PipelineStats stats;
        PipelineRow row;
        row.threads = threads;
        row.seconds = time_best(
            [&] { results = route_batch(nets, tech, opts, &stats, &ws); });
        row.nets_per_sec = static_cast<double>(nets.size()) / row.seconds;
        row.speedup = serial_s / row.seconds;
        row.identical = format_results(results) == serial_fmt;
        row.failed = stats.nets_not_ok();  // any degradation here is a bug
        row.compiles_per_net = stats.compiles_per_net;
        pipeline_rows.push_back(row);
        std::cout << "pipeline batch: " << batch_nets << " nets  threads "
                  << threads << "  " << fmt_sci(row.seconds, 2) << "s  "
                  << fmt_fixed(row.nets_per_sec, 0) << " nets/s  speedup "
                  << fmt_fixed(row.speedup, 2) << "x  identical "
                  << (row.identical ? "yes" : "NO") << "  failed "
                  << row.failed << "  compiles/net "
                  << fmt_fixed(row.compiles_per_net, 2) << '\n';
    }

    // --- fault-injection determinism probe ------------------------------
    // One soak plan hitting every stage, serial vs threaded: the degraded
    // outcome set must be byte-identical (results *and* diagnostics), and
    // the threaded failure count must equal the serial one
    // (expected_failed).  check_bench_regression.py hard-fails on either
    // violation.
    const char* fault_spec =
        "seed=7,topology=0.3,fallback=0.4,wiresize=0.3,moment=0.2,nan=0.15,"
        "arena-cap=12@0.2";
    PipelineOptions fault_serial;
    fault_serial.threads = 1;
    fault_serial.faults = FaultPlan::parse(fault_spec);
    PipelineOptions fault_threaded = fault_serial;
    fault_threaded.threads = 4;
    PipelineStats fault_s1, fault_s4;
    const auto fault_ref = route_batch(nets, tech, fault_serial, &fault_s1);
    const auto fault_par = route_batch(nets, tech, fault_threaded, &fault_s4);
    const bool fault_identical =
        format_results(fault_ref) == format_results(fault_par);
    std::cout << "pipeline faults: " << batch_nets << " nets  serial not-ok "
              << fault_s1.nets_not_ok() << "  threaded not-ok "
              << fault_s4.nets_not_ok() << "  events " << fault_s1.fault_events
              << "  identical " << (fault_identical ? "yes" : "NO") << '\n';

    // --- workspace arena reuse proof ------------------------------------
    // Two identical serial passes through one arena: the second pass must
    // re-build every tree (builds doubles) without a single buffer growth.
    std::vector<Workspace> arena;
    PipelineStats first, second;
    route_batch(nets, tech, serial_opts, &first, &arena);
    route_batch(nets, tech, serial_opts, &second, &arena);
    const bool arena_reused =
        second.counters.tree_builds == 2 * first.counters.tree_builds &&
        second.counters.tree_growths == first.counters.tree_growths &&
        second.counters.moment_growths == first.counters.moment_growths &&
        second.counters.scratch_growths == first.counters.scratch_growths;
    std::cout << "pipeline arena: pass1 builds " << first.counters.tree_builds
              << " growths " << first.counters.tree_growths << "  pass2 builds "
              << second.counters.tree_builds << " growths "
              << second.counters.tree_growths << "  reused "
              << (arena_reused ? "yes" : "NO") << '\n';

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    out << "{\n"
        << "  \"benchmark\": \"pipeline_throughput\",\n"
        << "  \"generated_by\": \"bench_micro_scaling\",\n"
        << "  \"technology\": \"mcm\",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"pipeline\": [\n";
    for (std::size_t i = 0; i < pipeline_rows.size(); ++i) {
        const PipelineRow& r = pipeline_rows[i];
        out << "    {\"threads\": " << r.threads << ", \"nets\": " << batch_nets
            << ", \"sinks\": " << batch_sinks
            << ", \"seconds\": " << fmt_sci(r.seconds, 4)
            << ", \"nets_per_sec\": " << fmt_fixed(r.nets_per_sec, 1)
            << ", \"speedup\": " << fmt_fixed(r.speedup, 2)
            << ", \"identical\": " << (r.identical ? "true" : "false")
            << ", \"failed\": " << r.failed
            << ", \"compiles_per_net\": " << fmt_fixed(r.compiles_per_net, 2) << "}"
            << (i + 1 < pipeline_rows.size() ? "," : "") << '\n';
    }
    out << "  ],\n"
        << "  \"fault_injection\": {\"spec\": \"" << fault_spec
        << "\", \"nets\": " << batch_nets
        << ", \"expected_failed\": " << fault_s1.nets_not_ok()
        << ", \"failed\": " << fault_s4.nets_not_ok()
        << ", \"fault_events\": " << fault_s4.fault_events
        << ", \"identical\": " << (fault_identical ? "true" : "false")
        << "},\n"
        << "  \"arena\": {\"nets\": " << batch_nets
        << ", \"passes\": 2, \"tree_builds\": " << second.counters.tree_builds
        << ", \"tree_growths_first\": " << first.counters.tree_growths
        << ", \"tree_growths_second\": " << second.counters.tree_growths
        << ", \"moment_growths_first\": " << first.counters.moment_growths
        << ", \"moment_growths_second\": " << second.counters.moment_growths
        << ", \"scratch_growths_first\": " << first.counters.scratch_growths
        << ", \"scratch_growths_second\": " << second.counters.scratch_growths
        << ", \"reused\": " << (arena_reused ? "true" : "false") << "}\n"
        << "}\n";
    std::cout << "wrote " << path << '\n';

    bool all_identical = arena_reused && fault_identical &&
                         fault_s1.nets_not_ok() == fault_s4.nets_not_ok();
    for (const PipelineRow& r : pipeline_rows)
        all_identical = all_identical && r.identical && r.failed == 0 &&
                        r.compiles_per_net <= 1.0;
    return all_identical;
}

// ---------------------------------------------------------------------------
// BENCH_eco.json: session ECO repair latency + hash-consed cache throughput
// ---------------------------------------------------------------------------

/// Per-call wall-clock of a call that mutates its own state (an ECO apply
/// alternating between two positions): best-of-passes over a fixed loop.
template <typename Fn>
double time_per_call(Fn&& fn, int iters)
{
    double best = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < 5; ++pass)
        best = std::min(best, bench::time_seconds([&] {
                            for (int i = 0; i < iters; ++i) fn();
                        }) / iters);
    return best;
}

/// Interior-source net with `bulk` sinks in quadrant (+,+) and `small`
/// sinks in each of the other three quadrants, all strictly interior.
Net skewed_net(std::uint64_t seed, int bulk, int small)
{
    std::mt19937_64 rng(seed);
    Net n;
    n.source = Point{2000, 2000};
    const auto fill = [&](int count, Coord x0, Coord y0) {
        while (count > 0) {
            const Point p{x0 + 1 + static_cast<Coord>(rng() % 1998),
                          y0 + 1 + static_cast<Coord>(rng() % 1998)};
            if (std::find(n.sinks.begin(), n.sinks.end(), p) != n.sinks.end())
                continue;
            n.sinks.push_back(p);
            --count;
        }
    };
    fill(bulk, 2000, 2000);
    fill(small, 0, 2000);
    fill(small, 0, 0);
    fill(small, 2000, 0);
    return n;
}

struct EcoRow {
    const char* kernel = "";
    int sinks = 0;
    double full_s = 0.0;  ///< from-scratch route_single latency
    double eco_s = 0.0;   ///< Session::apply latency
    bool incremental = false;
    bool identical = false;
    double speedup() const { return eco_s > 0.0 ? full_s / eco_s : 0.0; }
};

/// One ECO latency row: move sink `k` of `net` back and forth between two
/// in-quadrant positions, comparing Session::apply against from-scratch
/// route_single of the same mutated net.
EcoRow measure_eco_move(const char* kernel, const Technology& tech,
                        const Net& net, std::size_t k, Point pos_a, Point pos_b)
{
    EcoRow row;
    row.kernel = kernel;
    row.sinks = static_cast<int>(net.sinks.size());

    Session s(tech);
    const NetId id = s.add(net);

    // Identity gate first: both target positions, each apply bit-compared
    // against a from-scratch route of the mutated net.
    Workspace ws;
    row.identical = true;
    row.incremental = true;
    Net mutated = net;
    Technology t = tech;
    for (const Point& to : {pos_a, pos_b}) {
        const EcoDelta d = EcoDelta::make_move(k, to);
        apply_delta(mutated, t, d);
        const EcoOutcome o = s.apply(id, d);
        const NetRouteResult ref =
            route_single(mutated, o.request, 0, tech, PipelineOptions{}, ws);
        row.identical =
            row.identical &&
            format_results(std::vector<NetRouteResult>{o.result}) ==
                format_results(std::vector<NetRouteResult>{ref});
        row.incremental = row.incremental && o.incremental;
    }

    // Latency: alternate the two positions so every apply repairs.
    bool flip = false;
    row.eco_s = time_per_call(
        [&] {
            s.apply(id, EcoDelta::make_move(k, flip ? pos_a : pos_b));
            flip = !flip;
        },
        16);
    std::size_t req = 1000000;  // any index: faults are off, only diag changes
    flip = false;
    row.full_s = time_per_call(
        [&] {
            Net m = net;
            Technology mt = tech;
            apply_delta(m, mt, EcoDelta::make_move(k, flip ? pos_a : pos_b));
            benchmark::DoNotOptimize(
                route_single(m, req++, 0, tech, PipelineOptions{}, ws));
            flip = !flip;
        },
        8);
    return row;
}

struct CacheRow {
    std::string kernel;
    int nets = 0;
    int sinks = 0;
    double dup_ratio = 0.0;
    double off_s = 0.0;  ///< serial route_batch, no cache
    double on_s = 0.0;   ///< serial route_batch, fresh cache
    std::uint64_t served = 0;  ///< hits + single-flight shares (cache on)
    std::uint64_t resident_bytes = 0;  ///< cache RSS after the batch drain
    std::size_t entries = 0;           ///< interned signatures
    double compiles_per_routed_net = 0.0;
    bool identical = false;
    double speedup() const { return on_s > 0.0 ? off_s / on_s : 0.0; }
};

/// `total` nets of which ~`dup_ratio` are translated duplicates of earlier
/// base nets, deterministically interleaved.
std::vector<Net> dup_batch(std::uint64_t seed, int total, double dup_ratio,
                           int sinks)
{
    const int dups = static_cast<int>(total * dup_ratio);
    std::vector<Net> nets = random_nets(seed, total - dups, kMcmGrid, sinks);
    std::mt19937_64 rng(seed ^ 0xecull);
    for (int d = 0; d < dups; ++d) {
        Net copy = nets[rng() % nets.size()];
        const Coord dx = static_cast<Coord>(rng() % 64);
        const Coord dy = static_cast<Coord>(rng() % 64);
        copy.source = Point{copy.source.x + dx, copy.source.y + dy};
        for (Point& p : copy.sinks) p = Point{p.x + dx, p.y + dy};
        nets.push_back(std::move(copy));
    }
    std::shuffle(nets.begin(), nets.end(), rng);
    return nets;
}

bool write_eco_json(const std::string& path, bool smoke,
                    const std::vector<int>& threads_list)
{
    const Technology tech = mcm_technology();

    // --- ECO repair latency vs full re-route ----------------------------
    // The headline row is the quadrant-skewed shape ECO repair is built
    // for: the bulk of the sinks in one quadrant, the edit in a small one,
    // so apply() rebuilds a 10-sink A-tree instead of a 150-sink one
    // (A-tree construction is superlinear in per-quadrant sinks) and
    // warm-starts GREWSA on the unchanged stems.  The uniform row is the
    // honest worst case: with ~30 sinks per quadrant the dirty quadrant is
    // a quarter of the work and the win is bounded accordingly.
    std::vector<EcoRow> eco_rows;
    {
        const Net skew = skewed_net(77, 150, 10);  // 180 sinks, 150 in (+,+)
        // Sink 150 is the first (-,+) sink; both targets stay in (-,+).
        eco_rows.push_back(measure_eco_move("eco_move_skewed", tech, skew, 150,
                                            Point{700, 2900},
                                            Point{1300, 3400}));
        const Net uni = skewed_net(78, 30, 30);  // 120 sinks, 30 per quadrant
        // Sink 30 is the first (-,+) sink; both targets stay in (-,+).
        eco_rows.push_back(measure_eco_move("eco_move_uniform", tech, uni, 30,
                                            Point{700, 2900},
                                            Point{1300, 3400}));
    }
    for (const EcoRow& r : eco_rows)
        std::cout << "eco latency: " << r.kernel << "  " << r.sinks
                  << " sinks  full " << fmt_sci(r.full_s, 2) << "s  eco "
                  << fmt_sci(r.eco_s, 2) << "s  speedup "
                  << fmt_fixed(r.speedup(), 1) << "x  incremental "
                  << (r.incremental ? "yes" : "NO") << "  identical "
                  << (r.identical ? "yes" : "NO") << '\n';

    // --- hash-consed cache throughput -----------------------------------
    // Serial route_batch over duplicate-laden batches, fresh cache per
    // measurement: the win is single-flight sharing within the batch, not
    // warm-cache replay.  dup0 rows bound the cache's bookkeeping overhead.
    const std::vector<int> batch_sizes =
        smoke ? std::vector<int>{1000} : std::vector<int>{1000, 10000, 100000};
    const int cache_sinks = 8;
    std::vector<CacheRow> cache_rows;
    for (const int total : batch_sizes) {
        for (const double ratio : {0.0, 0.5}) {
            const auto nets = dup_batch(101 + total, total, ratio, cache_sinks);
            CacheRow row;
            row.kernel = std::string(ratio == 0.0 ? "dup0_n" : "dup50_n") +
                         std::to_string(total);
            row.nets = total;
            row.sinks = cache_sinks;
            row.dup_ratio = ratio;

            PipelineOptions off;
            off.threads = 1;
            std::vector<NetRouteResult> off_results;
            row.off_s =
                time_best([&] { off_results = route_batch(nets, tech, off); });

            PipelineStats stats;
            std::vector<NetRouteResult> on_results;
            std::size_t entries = 0;
            row.on_s = time_best([&] {
                RouteCache cache;  // fresh per pass: measure cold sharing
                PipelineOptions on = off;
                on.cache = &cache;
                on_results = route_batch(nets, tech, on, &stats);
                entries = cache.size();
            });
            row.served = stats.cache_hits + stats.cache_shared;
            row.resident_bytes = stats.resident_bytes;
            row.entries = entries;
            row.compiles_per_routed_net = stats.compiles_per_routed_net;
            row.identical =
                format_results(on_results) == format_results(off_results);
            cache_rows.push_back(row);
            std::cout << "eco cache: " << row.kernel << "  off "
                      << fmt_sci(row.off_s, 2) << "s  on "
                      << fmt_sci(row.on_s, 2) << "s  speedup "
                      << fmt_fixed(row.speedup(), 2) << "x  served "
                      << row.served << "  compiles/routed "
                      << fmt_fixed(row.compiles_per_routed_net, 2)
                      << "  identical " << (row.identical ? "yes" : "NO")
                      << '\n';
        }
    }

    // --- cache determinism under threads and shards ---------------------
    // Same dup-heavy batch, cache on, swept over the thread list (through an
    // external pool, so the sweep exercises the parallel single-flight path
    // even on a single-core host) and shard counts 1/4/64: the epoch-drain
    // rule must keep the output bytes AND the cache contents identical to
    // the 1-thread 1-shard run in every cell.
    struct MtRow {
        int threads = 0;
        std::size_t shards = 0;
        bool identical = false;
    };
    const int mt_nets_n = 1000;
    const auto mt_nets = dup_batch(303, mt_nets_n, 0.5, cache_sinks);
    RouteCache mt_ref_cache;  // 1 shard
    PipelineOptions mt_serial;
    mt_serial.threads = 1;
    mt_serial.cache = &mt_ref_cache;
    const std::string mt_ref =
        format_results(route_batch(mt_nets, tech, mt_serial));
    const std::string mt_ref_dump = mt_ref_cache.dump();
    const std::uint64_t mt_ref_resident = mt_ref_cache.resident_bytes();
    std::vector<MtRow> mt_rows;
    bool mt_identical = true;
    for (const int threads : threads_list) {
        for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                         std::size_t{64}}) {
            RouteCache cache(0, shards);
            ThreadPool pool(threads);
            PipelineOptions opts;
            opts.threads = 1;
            opts.cache = &cache;
            opts.pool = threads > 1 ? &pool : nullptr;
            MtRow row{threads, shards, false};
            row.identical =
                format_results(route_batch(mt_nets, tech, opts)) == mt_ref &&
                cache.size() == mt_ref_cache.size() &&
                cache.resident_bytes() == mt_ref_resident &&
                (shards != 1 || cache.dump() == mt_ref_dump);
            mt_identical = mt_identical && row.identical;
            mt_rows.push_back(row);
            std::cout << "eco cache mt: " << mt_nets_n << " nets  threads "
                      << threads << "  shards " << shards << "  identical "
                      << (row.identical ? "yes" : "NO") << '\n';
        }
    }

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    out << "{\n"
        << "  \"benchmark\": \"eco_session\",\n"
        << "  \"generated_by\": \"bench_micro_scaling\",\n"
        << "  \"technology\": \"mcm\",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"eco\": [\n";
    for (std::size_t i = 0; i < eco_rows.size(); ++i) {
        const EcoRow& r = eco_rows[i];
        out << "    {\"kernel\": \"" << r.kernel << "\", \"sinks\": " << r.sinks
            << ", \"full_s\": " << fmt_sci(r.full_s, 4)
            << ", \"eco_s\": " << fmt_sci(r.eco_s, 4)
            << ", \"speedup\": " << fmt_fixed(r.speedup(), 2)
            << ", \"incremental\": " << (r.incremental ? "true" : "false")
            << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
            << (i + 1 < eco_rows.size() ? "," : "") << '\n';
    }
    out << "  ],\n"
        << "  \"cache\": [\n";
    for (std::size_t i = 0; i < cache_rows.size(); ++i) {
        const CacheRow& r = cache_rows[i];
        out << "    {\"kernel\": \"" << r.kernel << "\", \"sinks\": " << r.sinks
            << ", \"nets\": " << r.nets
            << ", \"dup_ratio\": " << fmt_fixed(r.dup_ratio, 2)
            << ", \"off_s\": " << fmt_sci(r.off_s, 4)
            << ", \"on_s\": " << fmt_sci(r.on_s, 4)
            << ", \"speedup\": " << fmt_fixed(r.speedup(), 2)
            << ", \"served\": " << r.served
            << ", \"resident_bytes\": " << r.resident_bytes
            << ", \"entries\": " << r.entries
            << ", \"compiles_per_routed_net\": "
            << fmt_fixed(r.compiles_per_routed_net, 2)
            << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
            << (i + 1 < cache_rows.size() ? "," : "") << '\n';
    }
    // The resident-footprint row the regression checker tracks: the largest
    // dup50 batch's interned-payload RSS (refcounted sharing keeps it at one
    // payload per distinct signature, not per served net).
    const CacheRow& rss = cache_rows.back();
    out << "  ],\n"
        << "  \"cache_rss_100k\": {\"nets\": " << rss.nets
        << ", \"sinks\": " << rss.sinks
        << ", \"dup_ratio\": " << fmt_fixed(rss.dup_ratio, 2)
        << ", \"entries\": " << rss.entries
        << ", \"resident_bytes\": " << rss.resident_bytes << "},\n"
        << "  \"cache_mt\": {\"nets\": " << mt_nets_n
        << ", \"threads\": " << threads_list.back() << ", \"dup_ratio\": 0.50"
        << ", \"identical\": " << (mt_identical ? "true" : "false") << "},\n"
        << "  \"cache_mt_sharded\": [\n";
    for (std::size_t i = 0; i < mt_rows.size(); ++i) {
        const MtRow& r = mt_rows[i];
        out << "    {\"nets\": " << mt_nets_n << ", \"threads\": " << r.threads
            << ", \"shards\": " << r.shards
            << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
            << (i + 1 < mt_rows.size() ? "," : "") << '\n';
    }
    out << "  ]\n"
        << "}\n";
    std::cout << "wrote " << path << '\n';

    bool all_ok = mt_identical;
    for (const EcoRow& r : eco_rows)
        all_ok = all_ok && r.identical && r.incremental;
    for (const CacheRow& r : cache_rows)
        all_ok = all_ok && r.identical && r.compiles_per_routed_net <= 1.0;
    return all_ok;
}

bool write_serve_json(const std::string& path, bool smoke)
{
    const Technology tech = mcm_technology();

    // --- service overload study -----------------------------------------
    // Growing client counts hammer a SessionService whose admission queue
    // is capped at 2 and whose pipeline runs under a virtual-clock deadline
    // plan, so every row exercises both overload paths at once: whole
    // requests refused with OverloadError, and admitted nets degraded down
    // the RouteStatus ladder.  Latency is wall-clock per request (rejected
    // requests included: refusal is the latency the client sees).  The
    // regression checker hard-fails any row with failed or hung requests
    // or a missing outcome mix -- graceful degradation means every request
    // finishes with a classified result, never an error or a stall.
    struct ServeRow {
        int clients = 0;
        int requests = 0;   ///< per client
        std::size_t queue_cap = 0;
        double p50_ms = 0.0;
        double p99_ms = 0.0;
        std::array<std::uint64_t, kRouteStatusCount> outcomes{};
        std::uint64_t rejected_requests = 0;  ///< OverloadError refusals
        std::uint64_t completed = 0;          ///< requests that returned
        std::uint64_t failed = 0;  ///< non-overload exceptions (must be 0)
        std::uint64_t hung = 0;    ///< started but never finished (must be 0)
        std::uint64_t pressure_evictions = 0;  ///< memory-budget LRU drops
    };

    const std::vector<int> client_counts =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    const int requests = smoke ? 4 : 8;
    const int batch_nets = smoke ? 8 : 20;
    const std::vector<Net> common = random_nets(314, batch_nets, kMcmGrid, 6);

    std::vector<ServeRow> rows;
    for (const int clients : client_counts) {
        ServeRow row;
        row.clients = clients;
        row.requests = requests;
        row.queue_cap = 2;
        row.outcomes.fill(0);

        ServiceOptions so;
        so.threads = 2;
        so.queue_cap = row.queue_cap;
        // A deliberately tight budget so LRU pressure eviction runs on the
        // same traffic that exercises admission control (the study's rows
        // report how often it fired; correctness is unaffected).
        so.memory_budget_bytes = 2 * 1024;
        so.session.pipeline.faults =
            FaultPlan::parse("seed=5,vdeadline=10,vjitter=20");
        SessionService svc(tech, so);

        std::vector<std::vector<double>> latency(clients);
        std::vector<std::array<std::uint64_t, kRouteStatusCount>> tallies(
            clients);
        for (auto& t : tallies) t.fill(0);
        std::vector<std::uint64_t> rejected(clients, 0), failed(clients, 0),
            started(clients, 0), finished(clients, 0), unknown(clients, 0);

        // Alternate session flavors: even clients run under the virtual
        // deadline plan (seasoning the outcome mix with deadline_degraded
        // rungs), odd clients run fault-free so their clean results intern
        // into the shared cache -- which is what gives the memory budget
        // something to pressure-evict (fault-carrying requests bypass the
        // cache entirely, DESIGN.md §11).
        SessionOptions plain = so.session;
        plain.pipeline.faults = FaultPlan{};
        std::vector<SessionId> ids;
        for (int c = 0; c < clients; ++c)
            ids.push_back(c % 2 ? svc.open(plain) : svc.open());

        std::vector<std::thread> workers;
        for (int c = 0; c < clients; ++c) {
            workers.emplace_back([&, c] {
                for (int r = 0; r < requests; ++r) {
                    std::vector<Net> nets;
                    nets.reserve(common.size());
                    const Coord dx = static_cast<Coord>(900 * c + 13 * r);
                    const Coord dy = static_cast<Coord>(500 * c + 7 * r);
                    for (const Net& n : common) {
                        Net copy = n;
                        copy.source = Point{n.source.x + dx, n.source.y + dy};
                        for (Point& p : copy.sinks)
                            p = Point{p.x + dx, p.y + dy};
                        nets.push_back(std::move(copy));
                    }
                    ++started[c];
                    const auto t0 = std::chrono::steady_clock::now();
                    try {
                        const std::vector<NetId> net_ids =
                            svc.add_batch(ids[c], nets);
                        for (const NetId nid : net_ids) {
                            const RouteStatus st =
                                svc.result(ids[c], nid).status;
                            const auto idx = static_cast<std::size_t>(st);
                            if (idx < kRouteStatusCount)
                                ++tallies[c][idx];
                            else
                                ++unknown[c];
                        }
                    } catch (const OverloadError&) {
                        ++rejected[c];
                    } catch (const std::exception&) {
                        ++failed[c];
                    }
                    const std::chrono::duration<double, std::milli> dt =
                        std::chrono::steady_clock::now() - t0;
                    latency[c].push_back(dt.count());
                    ++finished[c];
                }
            });
        }
        for (auto& w : workers) w.join();

        std::vector<double> all_ms;
        for (int c = 0; c < clients; ++c) {
            all_ms.insert(all_ms.end(), latency[c].begin(), latency[c].end());
            for (std::size_t s = 0; s < kRouteStatusCount; ++s)
                row.outcomes[s] += tallies[c][s];
            row.rejected_requests += rejected[c];
            row.failed += failed[c] + unknown[c];
            row.completed += finished[c];
            row.hung += started[c] - finished[c];
        }
        std::sort(all_ms.begin(), all_ms.end());
        const auto pct = [&](double q) {
            if (all_ms.empty()) return 0.0;
            const auto i = static_cast<std::size_t>(
                q * static_cast<double>(all_ms.size() - 1) + 0.5);
            return all_ms[std::min(i, all_ms.size() - 1)];
        };
        row.p50_ms = pct(0.50);
        row.p99_ms = pct(0.99);
        row.pressure_evictions = svc.stats().pressure_evictions;

        std::cout << "serve overload: clients " << row.clients << "  requests "
                  << row.completed << "  rejected " << row.rejected_requests
                  << "  p50 " << fmt_fixed(row.p50_ms, 2) << "ms  p99 "
                  << fmt_fixed(row.p99_ms, 2) << "ms  failed " << row.failed
                  << "  hung " << row.hung << '\n';
        rows.push_back(row);
    }

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    out << "{\n"
        << "  \"benchmark\": \"serve_overload\",\n"
        << "  \"generated_by\": \"bench_micro_scaling\",\n"
        << "  \"technology\": \"mcm\",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"queue_cap\": 2,\n"
        << "  \"memory_budget_bytes\": 2048,\n"
        << "  \"fault_spec\": \"seed=5,vdeadline=10,vjitter=20\",\n"
        << "  \"batch_nets\": " << batch_nets << ",\n"
        << "  \"serve_overload\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ServeRow& r = rows[i];
        out << "    {\"clients\": " << r.clients
            << ", \"requests_per_client\": " << r.requests
            << ", \"queue_cap\": " << r.queue_cap
            << ", \"p50_ms\": " << fmt_fixed(r.p50_ms, 3)
            << ", \"p99_ms\": " << fmt_fixed(r.p99_ms, 3)
            << ", \"rejected_requests\": " << r.rejected_requests
            << ", \"completed\": " << r.completed
            << ", \"failed\": " << r.failed << ", \"expected_failed\": 0"
            << ", \"hung\": " << r.hung
            << ", \"pressure_evictions\": " << r.pressure_evictions
            << ", \"outcomes\": {";
        for (std::size_t s = 0; s < kRouteStatusCount; ++s)
            out << (s ? ", " : "") << '"'
                << to_string(static_cast<RouteStatus>(s))
                << "\": " << r.outcomes[s];
        out << "}}" << (i + 1 < rows.size() ? "," : "") << '\n';
    }
    out << "  ]\n"
        << "}\n";
    std::cout << "wrote " << path << '\n';

    bool all_ok = true;
    for (const ServeRow& r : rows) {
        all_ok = all_ok && r.failed == 0 && r.hung == 0;
        // Every rung tallied above rejected_overload's per-net form comes
        // from svc.result, so a nonzero `failed` rung means a net errored
        // inside an admitted request -- not graceful degradation.
        all_ok = all_ok &&
                 r.outcomes[static_cast<std::size_t>(RouteStatus::failed)] == 0;
    }
    return all_ok;
}

bool write_chip_json(const std::string& path, bool smoke)
{
    const Technology tech = mcm_technology();

    // --- chip workload study --------------------------------------------
    // A whole generated design streamed through route_stream in 512-net
    // chunks: throughput at 1 and 4 threads with byte-identity of the
    // serialized results (the format_results contract lifted to streams),
    // chunked-vs-one-shot byte-identity, and the bounded-memory witness --
    // a 10x larger design through the same chunk size must not grow the
    // persistent workspace footprint.  The full run is the acceptance-scale
    // 100k-net design; smoke shrinks the net count only.
    const std::size_t full_nets = smoke ? 2000 : 100000;
    const std::size_t chunk = 512;
    const int sinks = 6;
    const std::uint64_t seed = 71;

    struct ChipRun {
        std::string bytes;  ///< format_results over the whole stream
        StreamStats st;
        double seconds = 0.0;
    };
    const auto run_stream = [&](std::size_t count, int threads,
                                std::size_t chunk_nets) {
        PipelineOptions popts;
        popts.threads = threads;
        GeneratedNetSource src(seed, count, kMcmGrid, sinks);
        StreamOptions sopts;
        sopts.chunk_nets = chunk_nets;
        std::vector<NetRouteResult> all;
        all.reserve(count);
        ChipRun r;
        const auto t0 = std::chrono::steady_clock::now();
        r.st = route_stream(src, tech, popts, sopts,
                            [&](std::size_t, const std::vector<WorkItem>&,
                                const std::vector<NetRouteResult>& results) {
                                all.insert(all.end(), results.begin(),
                                           results.end());
                            });
        r.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        r.bytes = format_results(all);
        return r;
    };

    const ChipRun serial = run_stream(full_nets, 1, chunk);
    const ChipRun threaded = run_stream(full_nets, 4, chunk);
    const ChipRun oneshot = run_stream(full_nets, 1, 0);
    const ChipRun small = run_stream(full_nets / 10, 1, chunk);

    const bool mt_identical = threaded.bytes == serial.bytes;
    const bool oneshot_identical = oneshot.bytes == serial.bytes;
    // Arenas are high-water marks of the largest net routed, so a 10x
    // larger design may legitimately grow them a little; staying under 2x
    // while the design grows 10x is the design-size-independence witness.
    const bool bounded = small.st.workspace_resident_bytes > 0 &&
                         serial.st.workspace_resident_bytes <=
                             2 * small.st.workspace_resident_bytes;

    std::cout << "chip stream: " << full_nets << " nets  serial "
              << fmt_fixed(static_cast<double>(full_nets) / serial.seconds, 0)
              << " nets/s  4-thread "
              << fmt_fixed(static_cast<double>(full_nets) / threaded.seconds, 0)
              << " nets/s  mt_identical " << (mt_identical ? "yes" : "no")
              << "  oneshot_identical " << (oneshot_identical ? "yes" : "no")
              << "  resident " << serial.st.workspace_resident_bytes
              << "B (10% design: " << small.st.workspace_resident_bytes
              << "B)\n";

    // --- delay-model cross-check ----------------------------------------
    // A smaller constrained design: every third net gets a loose RAT (1.5x
    // its bounding-box estimate, normally met), every tenth a hopeless one
    // (0.1x, a guaranteed violation), so WNS/TNS and the measured-vs-
    // estimate ratio band are all exercised with nonzero values.
    const std::size_t dm_nets = smoke ? 300 : 3000;
    std::vector<WorkItem> dm_items;
    {
        GeneratedNetSource src(seed + 1, dm_nets, kMcmGrid, sinks);
        while (src.pull(dm_items, 1024) != 0) {}
        for (std::size_t i = 0; i < dm_items.size(); ++i) {
            const double bb = bounding_box_delay_s(dm_items[i].net, tech);
            if (i % 10 == 0) {
                dm_items[i].meta.required_arrival_s = 0.1 * bb;
                dm_items[i].meta.criticality = 2.0;
            } else if (i % 3 == 0) {
                dm_items[i].meta.required_arrival_s = 1.5 * bb;
            }
        }
    }
    ChipAggregator agg(tech, 10);
    {
        VectorNetSource src(dm_items);
        StreamOptions sopts;
        sopts.chunk_nets = chunk;
        route_stream(src, tech, {}, sopts,
                     [&](std::size_t first, const std::vector<WorkItem>& it,
                         const std::vector<NetRouteResult>& r) {
                         agg.add_chunk(first, it, r);
                     });
    }
    const ChipSummary& dm = agg.summary();
    // Model sanity gate: every routed net produced a usable ratio and the
    // band is physical (positive, bounded) with the planted violations seen.
    const bool model_ok = dm.ratio_nets == dm.routed && dm.ratio_min > 0.0 &&
                          dm.ratio_max < 100.0 && dm.violations > 0 &&
                          dm.wns_s < 0.0 && dm.tns_s <= dm.wns_s;
    std::cout << "chip delay model: " << dm.nets << " nets  ratio mean "
              << fmt_fixed(dm.ratio_mean, 3) << " [" << fmt_fixed(dm.ratio_min, 3)
              << ", " << fmt_fixed(dm.ratio_max, 3) << "]  violations "
              << dm.violations << "  wns " << fmt_sci(dm.wns_s, 2) << "s  ok "
              << (model_ok ? "yes" : "no") << '\n';

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    const auto stream_row = [&](const ChipRun& r, int threads, bool identical,
                                double speedup) {
        out << "    {\"nets\": " << full_nets << ", \"threads\": " << threads
            << ", \"chunk_nets\": " << chunk
            << ", \"chunks\": " << r.st.chunks
            << ", \"seconds\": " << fmt_sci(r.seconds, 4)
            << ", \"nets_per_sec\": "
            << fmt_fixed(static_cast<double>(full_nets) / r.seconds, 1)
            << ", \"speedup\": " << fmt_fixed(speedup, 2)
            << ", \"resident_bytes\": " << r.st.workspace_resident_bytes
            << ", \"failed\": " << r.st.pipeline.nets_failed
            << ", \"expected_failed\": 0"
            << ", \"compiles_per_net\": "
            << fmt_fixed(r.st.pipeline.compiles_per_net, 4)
            << ", \"compiles_per_routed_net\": "
            << fmt_fixed(r.st.pipeline.compiles_per_routed_net, 4)
            << ", \"identical\": " << (identical ? "true" : "false") << "}";
    };
    out << "{\n"
        << "  \"benchmark\": \"chip_workload\",\n"
        << "  \"generated_by\": \"bench_micro_scaling\",\n"
        << "  \"technology\": \"mcm\",\n"
        << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"sinks\": " << sinks << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"chip_stream\": [\n";
    stream_row(serial, 1, true, 1.0);
    out << ",\n";
    stream_row(threaded, 4, mt_identical, serial.seconds / threaded.seconds);
    out << "\n  ],\n"
        << "  \"chip_identity\": {\"chunked_vs_oneshot\": {\"nets\": "
        << full_nets << ", \"chunk_nets\": " << chunk
        << ", \"identical\": " << (oneshot_identical ? "true" : "false")
        << "}},\n"
        << "  \"chip_bounded_memory\": {\n"
        << "    \"small\": {\"nets\": " << full_nets / 10
        << ", \"resident_bytes\": " << small.st.workspace_resident_bytes
        << "},\n"
        << "    \"full\": {\"nets\": " << full_nets
        << ", \"resident_bytes\": " << serial.st.workspace_resident_bytes
        << "},\n"
        << "    \"identical\": " << (bounded ? "true" : "false") << "\n"
        << "  },\n"
        << "  \"chip_delay_model\": {\"nets\": " << dm.nets
        << ", \"routed\": " << dm.routed << ", \"constrained\": "
        << dm.constrained << ", \"violations\": " << dm.violations
        << ", \"ratio_mean\": " << fmt_fixed(dm.ratio_mean, 4)
        << ", \"ratio_min\": " << fmt_fixed(dm.ratio_min, 4)
        << ", \"ratio_max\": " << fmt_fixed(dm.ratio_max, 4)
        << ", \"ratio_nets\": " << dm.ratio_nets
        << ", \"wns_s\": " << fmt_sci(dm.wns_s, 4)
        << ", \"tns_s\": " << fmt_sci(dm.tns_s, 4)
        << ", \"identical\": " << (model_ok ? "true" : "false") << "}\n"
        << "}\n";
    std::cout << "wrote " << path << '\n';

    return mt_identical && oneshot_identical && bounded && model_ok &&
           serial.st.pipeline.nets_failed == 0;
}

}  // namespace
}  // namespace cong93

int main(int argc, char** argv)
{
    std::string json_path = "BENCH_wiresize.json";
    std::string atree_json_path = "BENCH_atree.json";
    std::string pipeline_json_path = "BENCH_pipeline.json";
    std::string eco_json_path = "BENCH_eco.json";
    std::string serve_json_path = "BENCH_serve.json";
    std::string chip_json_path = "BENCH_chip.json";
    bool json_only = false;
    bool smoke = false;
    bool skip_wiresize = false;
    bool skip_atree = false;
    std::vector<int> threads_list = {1, 2, 4, 8};
    const auto parse_threads_list = [&](const char* spec) {
        threads_list.clear();
        std::string token;
        std::istringstream is(spec);
        while (std::getline(is, token, ','))
            threads_list.push_back(std::max(1, std::atoi(token.c_str())));
        if (threads_list.empty()) threads_list = {1};
    };
    std::vector<char*> keep;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strncmp(argv[i], "--atree-json=", 13) == 0)
            atree_json_path = argv[i] + 13;
        else if (std::strncmp(argv[i], "--pipeline-json=", 16) == 0)
            pipeline_json_path = argv[i] + 16;
        else if (std::strncmp(argv[i], "--eco-json=", 11) == 0)
            eco_json_path = argv[i] + 11;
        else if (std::strncmp(argv[i], "--serve-json=", 13) == 0)
            serve_json_path = argv[i] + 13;
        else if (std::strncmp(argv[i], "--chip-json=", 12) == 0)
            chip_json_path = argv[i] + 12;
        else if (std::strcmp(argv[i], "--json-only") == 0)
            json_only = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--skip-wiresize") == 0)
            skip_wiresize = true;
        else if (std::strcmp(argv[i], "--skip-atree") == 0)
            skip_atree = true;
        else if (std::strncmp(argv[i], "--threads-list=", 15) == 0)
            parse_threads_list(argv[i] + 15);
        else
            keep.push_back(argv[i]);
    }
    if (!json_only) {
        int kargc = static_cast<int>(keep.size());
        benchmark::Initialize(&kargc, keep.data());
        if (benchmark::ReportUnrecognizedArguments(kargc, keep.data())) return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    // --skip-* regenerate a study subset (e.g. BENCH_pipeline.json alone)
    // without paying for the large A-tree construction study.
    const bool wiresize_ok =
        skip_wiresize || cong93::write_scaling_json(json_path);
    const bool atree_ok =
        skip_atree || cong93::write_atree_json(atree_json_path, smoke);
    const bool pipeline_ok =
        cong93::write_pipeline_json(pipeline_json_path, smoke, threads_list);
    const bool eco_ok = cong93::write_eco_json(eco_json_path, smoke, threads_list);
    const bool serve_ok = cong93::write_serve_json(serve_json_path, smoke);
    const bool chip_ok = cong93::write_chip_json(chip_json_path, smoke);
    return wiresize_ok && atree_ok && pipeline_ok && eco_ok && serve_ok &&
                   chip_ok
               ? 0
               : 1;
}
