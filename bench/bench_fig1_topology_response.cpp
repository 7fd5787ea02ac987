// Figure 1: circuit responses of two interconnect topologies for the same
// net -- an optimal Steiner tree vs a delay-optimized (A-tree) topology.
// The delay-optimized tree has LARGER total wirelength yet SMALLER delay,
// the paper's motivating observation for the distributed RC regime.
//
// We search small MCM nets for a clean instance, print both trees, their
// MDRT cost terms, the two-pole and transient sink delays, and a sampled
// step-response table for the most-separated sink.
#include <random>

#include "atree/atree.h"
#include "baseline/exact_steiner.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/io.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "sim/transient.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Figure 1 -- OST vs delay-optimized topology responses",
                  "Cong/Leung/Zhou 1993, Figure 1");
    const Technology tech = mcm_technology();

    // Find an instance where the A-tree is strictly longer than the optimal
    // Steiner tree yet strictly faster.
    std::mt19937_64 rng(1);
    for (int attempt = 0; attempt < 500; ++attempt) {
        Net net;
        net.source = Point{0, 0};
        std::uniform_int_distribution<Coord> c(0, kMcmGrid / 2);
        for (int i = 0; i < 5; ++i) net.sinks.push_back(Point{c(rng), c(rng)});

        const RoutingTree ost_tree = exact_steiner(net).tree;
        const RoutingTree fast_tree = build_atree(net).tree;
        const FlatTree ost(ost_tree);
        const FlatTree fast(fast_tree);
        const auto d_ost =
            measure_delay(ost, tech, SimMethod::two_pole, bench::kPaperThreshold);
        const auto d_fast =
            measure_delay(fast, tech, SimMethod::two_pole, bench::kPaperThreshold);
        if (total_length(fast) <= total_length(ost) || d_fast.mean >= d_ost.mean) {
            net.sinks.clear();
            continue;
        }

        std::cout << "\nnet: source (0,0), sinks:";
        for (const Point s : net.sinks) std::cout << " (" << s.x << ',' << s.y << ')';
        std::cout << "\n\nTree 1 (optimal Steiner tree):   " << describe(ost_tree)
                  << "\nTree 2 (A-tree, delay optimized): " << describe(fast_tree)
                  << "\n\n";

        TextTable t({"metric", "Tree 1 (OST)", "Tree 2 (A-tree)"});
        t.add_row({"total wirelength", std::to_string(total_length(ost)),
                   std::to_string(total_length(fast))});
        t.add_row({"sum sink pathlengths", std::to_string(sum_sink_path_lengths(ost)),
                   std::to_string(sum_sink_path_lengths(fast))});
        t.add_row({"avg delay two-pole 90% (ns)", fmt_ns(d_ost.mean),
                   fmt_ns(d_fast.mean)});
        const auto tr_ost = measure_delay(ost, tech, SimMethod::transient,
                                          bench::kPaperThreshold);
        const auto tr_fast = measure_delay(fast, tech, SimMethod::transient,
                                           bench::kPaperThreshold);
        t.add_row({"avg delay transient 90% (ns)", fmt_ns(tr_ost.mean),
                   fmt_ns(tr_fast.mean)});
        t.add_row({"max delay transient 90% (ns)", fmt_ns(tr_ost.max),
                   fmt_ns(tr_fast.max)});
        t.print(std::cout);

        // Step responses at the slowest sink of the OST.
        std::size_t worst = 0;
        for (std::size_t i = 0; i < tr_ost.sink_delays.size(); ++i)
            if (tr_ost.sink_delays[i] > tr_ost.sink_delays[worst]) worst = i;
        const RcTree rc_ost = RcTree::from_flat_tree(ost, tech);
        const RcTree rc_fast = RcTree::from_flat_tree(fast, tech);
        const auto wf_ost =
            transient_waveforms(rc_ost, {rc_ost.sink_nodes()[worst]}, 0.98);
        const auto wf_fast =
            transient_waveforms(rc_fast, {rc_fast.sink_nodes()[worst]}, 0.98);

        std::cout << "\nStep response at the slowest OST sink (V vs ns):\n";
        TextTable wt({"t (ns)", "Tree 1 (OST)", "Tree 2 (A-tree)"});
        const std::size_t samples = 12;
        const double t_end = std::max(wf_ost[0].time.back(), wf_fast[0].time.back());
        for (std::size_t s = 1; s <= samples; ++s) {
            const double ts = t_end * static_cast<double>(s) / samples;
            const auto sample = [&](const Waveform& w) {
                std::size_t k = 0;
                while (k + 1 < w.time.size() && w.time[k] < ts) ++k;
                return w.value[k];
            };
            wt.add_row({fmt_ns(ts), fmt_fixed(sample(wf_ost[0]), 3),
                        fmt_fixed(sample(wf_fast[0]), 3)});
        }
        wt.print(std::cout);
        std::cout << "\nPaper's shape: Tree 2 has larger wirelength but its "
                     "response crosses the threshold earlier (smaller delay), because the "
                     "distributed wire resistance penalizes long source-sink "
                     "paths more than total capacitance.\n";
        return;
    }
    std::cout << "no separating instance found (unexpected)\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
