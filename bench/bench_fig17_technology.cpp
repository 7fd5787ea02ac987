// Figure 17 (+ Table 9): delay improvement of the wiresized A-tree over the
// batched 1-Steiner tree as a function of the IC technology (2.0/1.5/1.2/0.5
// um CMOS) and driver transistor scaling (4/6/8/10x minimum width), on 100
// 8-sink nets uniform in a 0.5mm x 0.5mm region.
//
// The paper's claims: (i) within a technology, improvement grows as the
// driver is scaled up (resistance ratio drops); (ii) the advanced 0.5um
// technology shows consistent A-tree wins while the old 2.0um technology
// favours the Steiner tree; (iii) the trend follows the resistance ratio.
#include <vector>

#include "atree/generalized.h"
#include "baseline/one_steiner.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

namespace cong93 {
namespace {

constexpr int kWidths = 3;

void run()
{
    bench::banner("Figure 17 -- improvement vs technology and transistor size",
                  "Cong/Leung/Zhou 1993, Figure 17 + Table 9");

    // Pre-build topologies once per net (they are technology independent).
    const auto nets = random_nets(1954, bench::kNetsPerConfig, kIcGrid, 8);
    std::vector<FlatTree> atrees, steiners;
    atrees.reserve(nets.size());
    steiners.reserve(nets.size());
    for (const Net& net : nets) {
        atrees.emplace_back(build_atree_general(net).tree);
        steiners.emplace_back(build_one_steiner(net).tree);
    }

    TextTable t({"technology", "Rd/R0 (1e6 um)", "driver x4", "driver x6",
                 "driver x8", "driver x10"});
    for (const Technology& base : table9_technologies()) {
        std::vector<std::string> row{base.name,
                                     fmt_fixed(base.resistance_ratio_um() / 1e6, 3)};
        for (const double scale : {4.0, 6.0, 8.0, 10.0}) {
            const Technology tech = base.with_driver_scale(scale);
            double d_atree = 0, d_steiner = 0;
            for (std::size_t i = 0; i < nets.size(); ++i) {
                const WiresizeContext ctx(atrees[i], tech,
                                          WidthSet::uniform_steps(kWidths));
                const CombinedResult sized = grewsa_owsa(ctx);
                d_atree += measure_delay_wiresized(ctx, sized.assignment,
                                                   SimMethod::two_pole,
                                                   bench::kPaperThreshold)
                               .mean;
                d_steiner += measure_delay(steiners[i], tech, SimMethod::two_pole,
                                           bench::kPaperThreshold)
                                 .mean;
            }
            // Improvement of the wiresized A-tree over batched 1-Steiner.
            const double impr = (d_steiner - d_atree) / d_steiner * 100.0;
            row.push_back(fmt_fixed(impr, 1) + "%");
        }
        t.add_row(row);
    }
    t.print(std::cout);
    std::cout << "\nPaper's shape: improvement grows left-to-right within each "
                 "row (bigger drivers => smaller resistance ratio) and is "
                 "largest for the 0.5um technology; for 2.0um CMOS the A-tree "
                 "advantage is smallest (the paper reports the plain A-tree "
                 "can even lose there).\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
