// e2e_bench / e2e_bench_traced: one workload, one run.
//
//   e2e_bench --workload <stream_small|stream_wide|eco_service> --seed <n>
//             --seconds <s> [--trace-dir <dir>]
//   e2e_bench_traced ... (same arguments; reports the per-layer metrics)
//
// Prints a `detail:` line (spreads, input summary, gate outcomes) and, as
// the last line, the result object.  Any identity-gate failure exits 3
// without a result line.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "alloc.h"
#include "workloads.h"

namespace {

int usage(const char* why)
{
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload "
                 "<stream_small|stream_wide|eco_service> --seed <n> --seconds <s> "
                 "[--trace-dir <dir>]\n",
                 why);
    return 2;
}

std::string result_line(const e2e::RunResult& r)
{
    e2e::Json metrics;
    for (const e2e::Metric& m : r.metrics) {
        e2e::Json one;
        one.num("value", m.value).str("unit", m.unit);
        metrics.raw(m.name, one.done());
    }
    e2e::Json o;
    o.boolean("correct", r.correct)
        .integer("attempted", r.attempted)
        .integer("failed", r.failed)
        .raw("metrics", metrics.done());
    return o.done();
}

}  // namespace

int main(int argc, char** argv)
{
    e2e::Args args;
    args.trace = e2e::alloc_counting_linked();
    args.trace_dir = "trace";
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") args.workload = v;
            else if (a == "--seed") {
                args.seed = std::stoull(v);
                have_seed = true;
            }
            else if (a == "--seconds") args.seconds = std::stod(v);
            else if (a == "--trace-dir") args.trace_dir = v;
            else return usage(("unknown option " + a).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (!have_seed) return usage("--seed is required");
    if (!(args.seconds > 0.0 && args.seconds <= 120.0))
        return usage("--seconds must be in (0, 120]");
    if (!e2e::is_stream_workload(args.workload) && args.workload != "eco_service")
        return usage("unknown workload");

    try {
        const e2e::RunResult r = e2e::is_stream_workload(args.workload)
                                     ? e2e::run_stream(args)
                                     : e2e::run_eco(args);
        std::cout << "detail: " << r.detail.done() << '\n';
        for (const e2e::Metric& m : r.metrics)
            std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
        std::cout << result_line(r) << std::endl;
        return 0;
    } catch (const e2e::GateFailure& e) {
        std::cerr << "e2e_bench: gate failed: " << e.what() << '\n';
        return 3;
    } catch (const std::exception& e) {
        std::cerr << "e2e_bench: error: " << e.what() << '\n';
        return 4;
    }
}
