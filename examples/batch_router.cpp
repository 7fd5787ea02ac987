// Batch router: route every net of a netlist file (or a generated batch)
// through the full A-tree + wiresizing flow and report per-net and aggregate
// results.  Demonstrates the text I/O layer (the cong93 netlist of
// workload/netlist.h, the tree format of rtree/io.h) and the flow a global
// router would invoke per net.
//
// Nets are routed concurrently on the batch thread pool (CONG93_THREADS
// overrides the worker count; results are index-ordered, so the output is
// byte-identical to a serial run).
//
//   $ ./batch_router                # 20 generated MCM nets
//   $ ./batch_router design.nets    # nets from a cong93 netlist file
//   $ ./batch_router --dump-format  # print an example netlist and exit
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "atree/generalized.h"
#include "batch/batch.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/io.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"
#include "workload/netlist.h"

int main(int argc, char** argv)
{
    using namespace cong93;

    std::vector<Net> nets;
    if (argc > 1 && std::string(argv[1]) == "--dump-format") {
        GeneratedNetSource src(1, 2, 1000, 3);
        std::vector<WorkItem> items;
        while (src.pull(items, 16) != 0) {
        }
        std::cout << format_netlist(items, "example");
        return 0;
    }
    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::cerr << "cannot open " << argv[1] << '\n';
            return 1;
        }
        // A bad header throws; a malformed net block arrives as an item
        // carrying its parse error.
        std::vector<WorkItem> items;
        try {
            NetlistReader reader(in);
            while (reader.pull(items, 1024) != 0) {
            }
        } catch (const std::invalid_argument& e) {
            std::cerr << argv[1] << ": " << e.what() << '\n';
            return 1;
        }
        for (WorkItem& item : items) {
            if (!item.meta.parse_error.empty()) {
                std::cerr << argv[1] << ": net '" << item.meta.name
                          << "': " << item.meta.parse_error << '\n';
                return 1;
            }
            nets.push_back(std::move(item.net));
        }
        if (nets.empty()) {
            std::cerr << argv[1] << ": no nets\n";
            return 1;
        }
    } else {
        nets = random_nets(2718, 20, kMcmGrid, 10);
    }

    const Technology tech = mcm_technology();
    const WidthSet widths = WidthSet::uniform_steps(4);

    TextTable t({"net", "sinks", "length", "radius", "uniform delay (ns)",
                 "wiresized delay (ns)", "gain"});
    struct NetResult {
        Length cost = 0;
        Length radius = 0;
        double before = 0.0;
        double after = 0.0;
    };
    // Fan the independent per-net pipelines out over the thread pool; each
    // worker writes only its own slot, so the table below is byte-identical
    // to a serial run.
    const std::vector<NetResult> results =
        batch_map<NetResult>(nets.size(), [&](std::size_t i) {
            const AtreeResult routed = build_atree_general(nets[i]);
            const FlatTree ft(routed.tree);
            const WiresizeContext ctx(ft, tech, widths);
            const CombinedResult sized = grewsa_owsa(ctx);
            NetResult r;
            r.cost = routed.cost;
            r.radius = radius(ft);
            r.before = measure_delay(ft, tech).mean;
            r.after =
                measure_delay_wiresized(ctx, sized.assignment).mean;
            return r;
        });
    double total_before = 0.0, total_after = 0.0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const NetResult& r = results[i];
        total_before += r.before;
        total_after += r.after;
        t.add_row({std::to_string(i), std::to_string(nets[i].sinks.size()),
                   std::to_string(r.cost), std::to_string(r.radius),
                   fmt_ns(r.before), fmt_ns(r.after),
                   fmt_pct_delta(r.before, r.after)});
    }
    t.print(std::cout);
    std::cout << "\naggregate mean delay: " << fmt_ns(total_before / nets.size())
              << " ns -> " << fmt_ns(total_after / nets.size()) << " ns ("
              << fmt_pct_delta(total_before, total_after) << ")\n";

    // Round-trip demo: serialize the last tree and parse it back.
    const AtreeResult last = build_atree_general(nets.back());
    const std::string text = format_tree(last.tree);
    const RoutingTree parsed = parse_tree(text);
    std::cout << "\nserialized last tree (" << text.size() << " bytes), reparsed "
              << parsed.node_count() << " nodes, length "
              << total_length(FlatTree(parsed))
              << '\n';
    return 0;
}
