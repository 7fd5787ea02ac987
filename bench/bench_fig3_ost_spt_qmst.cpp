// Figure 3: an instance where the three MDRT sub-objectives have three
// different optimal topologies.  We search small first-quadrant nets for an
// instance where the optimal Steiner tree (OST), the minimum-length
// shortest-path tree (SPT, which for first-quadrant nets coincides with the
// optimal rectilinear Steiner arborescence) and the quadratic minimum
// Steiner tree (QMST, the arborescence minimizing Σ_nodes pl_k) are pairwise
// different, then print the 3x3 cost matrix exactly like the figure.
#include <random>

#include "atree/exact_rsa.h"
#include "baseline/exact_steiner.h"
#include "bench_common.h"
#include "report/table.h"
#include "rtree/io.h"
#include "rtree/metrics.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Figure 3 -- OST, SPT and QMST optima differ",
                  "Cong/Leung/Zhou 1993, Figure 3");

    std::mt19937_64 rng(3);
    std::uniform_int_distribution<Coord> c(0, 6);
    for (int attempt = 0; attempt < 20000; ++attempt) {
        Net net;
        net.source = Point{0, 0};
        for (int i = 0; i < 4; ++i) net.sinks.push_back(Point{c(rng), c(rng)});

        const auto ost = exact_steiner(net);
        const auto spt = exact_rsa(net, RsaCost::wirelength);
        const auto qmst = exact_rsa(net, RsaCost::qmst);

        const FlatTree ost_ft(ost.tree);
        const FlatTree spt_ft(spt.tree);
        const FlatTree qmst_ft(qmst.tree);
        const Length len_ost = total_length(ost_ft);
        const Length len_spt = total_length(spt_ft);
        const Length len_qmst = total_length(qmst_ft);
        const Length pl_ost = sum_sink_path_lengths(ost_ft);
        const Length pl_spt = sum_sink_path_lengths(spt_ft);
        const Length pl_qmst = sum_sink_path_lengths(qmst_ft);
        const Length q_ost = sum_all_node_path_lengths(ost_ft);
        const Length q_spt = sum_all_node_path_lengths(spt_ft);
        const Length q_qmst = sum_all_node_path_lengths(qmst_ft);

        // Require genuine three-way separation like the figure:
        // OST strictly shortest, SPT strictly better on Σ sink pl,
        // QMST strictly better on Σ node pl than both others.
        if (!(len_ost < len_spt && len_ost < len_qmst)) continue;
        if (!(pl_spt < pl_ost)) continue;
        if (!(q_qmst < q_ost && q_qmst < q_spt)) continue;

        std::cout << "\nnet: source (0,0), sinks:";
        for (const Point s : net.sinks) std::cout << " (" << s.x << ',' << s.y << ')';
        std::cout << "\n\nOST topology:\n" << to_ascii(ost.tree)
                  << "\nSPT topology:\n" << to_ascii(spt.tree)
                  << "\nQMST topology:\n" << to_ascii(qmst.tree) << '\n';

        TextTable t({"cost function", "OST", "SPT", "QMST"});
        const auto star = [](Length v, bool opt) {
            return std::to_string(v) + (opt ? " (optimal)" : "");
        };
        t.add_row({"total wirelength  t1", star(len_ost, true), star(len_spt, false),
                   star(len_qmst, false)});
        t.add_row({"sum sink pl       t2", star(pl_ost, false), star(pl_spt, true),
                   star(pl_qmst, pl_qmst == pl_spt)});
        t.add_row({"sum node pl       t3", star(q_ost, false), star(q_spt, false),
                   star(q_qmst, true)});
        t.print(std::cout);
        std::cout << "\nPaper's shape (Figure 3): the three optima are realized "
                     "by three distinct trees; the QMST sits between the OST "
                     "(min wire) and SPT (min paths) extremes.\n";
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
