// Wiresizing playground: build a net's A-tree, print the segment structure,
// run GREWSA from both ends and OWSA, and visualize the monotone "wavefront"
// of widths (Section 4's Figure 15 idea) along every source-to-leaf path.
//
//   $ ./wiresize_playground [sinks] [r]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "tech/technology.h"
#include "wiresize/combined.h"
#include "wiresize/counting.h"
#include "wiresize/grewsa.h"
#include "wiresize/owsa.h"

int main(int argc, char** argv)
{
    using namespace cong93;
    const int sinks = argc > 1 ? std::atoi(argv[1]) : 10;
    const int r = argc > 2 ? std::atoi(argv[2]) : 4;

    const Technology tech = mcm_technology();
    std::mt19937_64 rng(123);
    const Net net = random_net(rng, kMcmGrid, sinks);
    const RoutingTree tree = build_atree_general(net).tree;
    const FlatTree ft(tree);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(r));
    const std::size_t n = ctx.segment_count();

    std::cout << n << " segments; assignment space: "
              << fmt_sci(exhaustive_assignment_count(n, r), 2)
              << " raw, " << fmt_sci(monotone_assignment_count(ctx), 2)
              << " monotone\n\n";

    const GrewsaResult lo = grewsa_from_min(ctx);
    const GrewsaResult hi = grewsa_from_max(ctx);
    const OwsaResult o = owsa(ctx);
    const CombinedResult comb = grewsa_owsa(ctx);

    TextTable t({"algorithm", "RPH delay (ns)", "sweeps/calls", "examined"});
    t.add_row({"uniform minimum width",
               fmt_ns(ctx.delay(min_assignment(n)), 3), "-", "-"});
    t.add_row({"GREWSA from f_lower", fmt_ns(lo.delay, 3), std::to_string(lo.sweeps),
               "-"});
    t.add_row({"GREWSA from f_upper", fmt_ns(hi.delay, 3), std::to_string(hi.sweeps),
               "-"});
    t.add_row({"OWSA (exact)", fmt_ns(o.delay, 3), std::to_string(o.calls),
               std::to_string(o.assignments_examined)});
    t.add_row({"GREWSA-OWSA (exact)", fmt_ns(comb.delay, 3),
               std::to_string(comb.owsa_calls),
               std::to_string(comb.assignments_examined)});
    t.print(std::cout);

    // Show the monotone width profile along each source-to-leaf chain.
    std::cout << "\nwidth profile per source-to-leaf path (stem -> leaf):\n";
    std::vector<std::vector<int>> leaf_paths;
    for (std::size_t i = 0; i < n; ++i) {
        if (ctx.seg_child_ptr()[i] != ctx.seg_child_ptr()[i + 1]) continue;
        std::vector<int> path;
        for (int s = static_cast<int>(i); s != kNoSegment;
             s = ctx.seg_parent()[static_cast<std::size_t>(s)])
            path.insert(path.begin(), s);
        leaf_paths.push_back(path);
    }
    for (const auto& path : leaf_paths) {
        std::cout << "  ";
        for (const int s : path)
            std::cout << ctx.widths()[comb.assignment[static_cast<std::size_t>(s)]]
                      << "(l=" << static_cast<Length>(ctx.seg_length()[static_cast<std::size_t>(s)])
                      << ") ";
        std::cout << '\n';
    }
    std::cout << "\nEvery profile is non-increasing: the monotone property "
                 "(Theorem 4) in action.\n";
    return 0;
}
