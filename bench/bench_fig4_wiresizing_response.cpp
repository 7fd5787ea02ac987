// Figure 4: two trees with the same T topology but different wire widths.
// Tree 1 is uniform-width; Tree 2 doubles the stem width.  The wider stem
// lowers the delay at both sinks -- the observation motivating the paper's
// wiresizing formulation.
#include "bench_common.h"
#include "report/table.h"
#include "rtree/io.h"
#include "sim/delay_measure.h"
#include "sim/transient.h"
#include "tech/technology.h"
#include "wiresize/delay_eval.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Figure 4 -- same topology, different wire widths",
                  "Cong/Leung/Zhou 1993, Figure 4");
    const Technology tech = mcm_technology();

    // T-tree on the MCM grid: 2000-grid stem, two 1000-grid branches.
    RoutingTree t(Point{1000, 0});
    const NodeId mid = t.add_child(t.root(), Point{1000, 2000});
    t.mark_sink(t.add_child(mid, Point{0, 2000}));
    t.mark_sink(t.add_child(mid, Point{2000, 2000}));
    const FlatTree ft(t);
    const WiresizeContext ctx(ft, tech, WidthSet({1.0, 2.0}));

    const std::size_t stem = static_cast<std::size_t>(ctx.seg_roots()[0]);
    Assignment uniform(ctx.segment_count(), 0);
    Assignment wide_stem(ctx.segment_count(), 0);
    wide_stem[stem] = 1;

    const auto d1 = measure_delay_wiresized(ctx, uniform, SimMethod::two_pole,
                                            bench::kPaperThreshold);
    const auto d2 = measure_delay_wiresized(ctx, wide_stem, SimMethod::two_pole,
                                            bench::kPaperThreshold);
    const auto tr1 = measure_delay_wiresized(ctx, uniform, SimMethod::transient,
                                             bench::kPaperThreshold);
    const auto tr2 = measure_delay_wiresized(ctx, wide_stem, SimMethod::transient,
                                             bench::kPaperThreshold);

    std::cout << "\nT-tree (stem 2000 grids, branches 1000 grids each):\n";
    TextTable tab({"metric", "Tree 1 (uniform W1)", "Tree 2 (stem 2*W1)"});
    tab.add_row({"RPH bound (ns)", fmt_ns(ctx.delay(uniform)),
                 fmt_ns(ctx.delay(wide_stem))});
    tab.add_row({"avg sink delay, two-pole 90% (ns)", fmt_ns(d1.mean), fmt_ns(d2.mean)});
    tab.add_row({"avg sink delay, transient 90% (ns)", fmt_ns(tr1.mean), fmt_ns(tr2.mean)});
    tab.print(std::cout);

    // Sampled responses at the left sink.
    const RcTree rc1 = RcTree::from_wiresized_flat(ctx, uniform);
    const RcTree rc2 = RcTree::from_wiresized_flat(ctx, wide_stem);
    const auto w1 = transient_waveforms(rc1, {rc1.sink_nodes()[0]}, 0.98);
    const auto w2 = transient_waveforms(rc2, {rc2.sink_nodes()[0]}, 0.98);
    std::cout << "\nStep response at a sink (V vs ns):\n";
    TextTable wt({"t (ns)", "Tree 1 (uniform)", "Tree 2 (wide stem)"});
    const double t_end = std::max(w1[0].time.back(), w2[0].time.back());
    for (int s = 1; s <= 12; ++s) {
        const double ts = t_end * s / 12.0;
        const auto sample = [&](const Waveform& w) {
            std::size_t k = 0;
            while (k + 1 < w.time.size() && w.time[k] < ts) ++k;
            return w.value[k];
        };
        wt.add_row({fmt_ns(ts), fmt_fixed(sample(w1[0]), 3),
                    fmt_fixed(sample(w2[0]), 3)});
    }
    wt.print(std::cout);
    std::cout << "\nPaper's shape: Tree 2 (wider stem) rises faster and has the "
                 "smaller delay despite its larger wire capacitance.\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
