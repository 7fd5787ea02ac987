// Critical-sink routing (the paper's Section 6 extension): one sink of a
// high-fanout net is on the critical path and must be as fast as possible.
// Compare the plain A-tree against the critical-sink A-tree, which isolates
// the critical sink on its own source-rooted arborescence.
//
//   $ ./critical_net [seed]
#include <cstdlib>
#include <iostream>

#include "atree/critical.h"
#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

int main(int argc, char** argv)
{
    using namespace cong93;
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
    const Technology tech = mcm_technology();

    std::mt19937_64 rng(seed);
    const Net net = random_net(rng, kMcmGrid, 10);
    // Declare the sink farthest from the source critical.
    std::size_t critical = 0;
    for (std::size_t i = 1; i < net.sinks.size(); ++i)
        if (dist(net.source, net.sinks[i]) > dist(net.source, net.sinks[critical]))
            critical = i;

    const AtreeResult plain = build_atree_general(net);
    const CriticalAtreeResult crit = build_atree_critical(net, {critical});

    const FlatTree plain_ft(plain.tree);
    const FlatTree crit_ft(crit.tree);
    const DelayReport plain_all = measure_delay(plain_ft, tech);
    const DelayReport crit_all = measure_delay(crit_ft, tech);
    const auto find_sink_delay = [](const FlatTree& ft, const DelayReport& d, Point p) {
        for (std::size_t i = 0; i < ft.sinks().size(); ++i)
            if (ft.point()[static_cast<std::size_t>(ft.sinks()[i])] == p)
                return d.sink_delays[i];
        return -1.0;
    };
    const Point cp = net.sinks[critical];
    const double plain_crit = find_sink_delay(plain_ft, plain_all, cp);
    const double crit_crit = find_sink_delay(crit_ft, crit_all, cp);

    std::cout << "10-sink MCM net, critical sink at (" << cp.x << ',' << cp.y
              << ") -- " << dist(net.source, cp) << " grids from the source\n\n";
    TextTable t({"metric", "plain A-tree", "critical-sink A-tree"});
    t.add_row({"wirelength", std::to_string(plain.cost), std::to_string(crit.cost)});
    t.add_row({"critical sink delay (ns)", fmt_ns(plain_crit), fmt_ns(crit_crit)});
    t.add_row({"mean sink delay (ns)", fmt_ns(plain_all.mean), fmt_ns(crit_all.mean)});
    t.add_row({"max sink delay (ns)", fmt_ns(plain_all.max), fmt_ns(crit_all.max)});
    t.print(std::cout);
    std::cout << "\nThe critical sink gets faster (its path carries no branch "
                 "load); the price is extra wire where the plain A-tree shared.\n";
    return 0;
}
