// Visualization demo: render one net's routing under every router as SVG
// files, plus the wiresized A-tree with stroke widths proportional to the
// optimal wire widths (the Figure 15 "wavefront" picture).
//
//   $ ./visualize [out_dir] [seed]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "netgen/netgen.h"
#include "rtree/svg.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

int main(int argc, char** argv)
{
    using namespace cong93;
    const std::string dir = argc > 1 ? argv[1] : ".";
    const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 11;

    std::mt19937_64 rng(seed);
    const Net net = random_net(rng, kMcmGrid, 9);
    const Technology tech = mcm_technology();

    const auto save = [&](const std::string& name, const std::string& svg) {
        const std::string path = dir + "/" + name + ".svg";
        std::ofstream of(path);
        if (!of) {
            std::cerr << "cannot write " << path << '\n';
            std::exit(1);
        }
        of << svg;
        std::cout << "wrote " << path << '\n';
    };

    const FlatTree ft(build_atree_general(net).tree);
    save("atree", to_svg(ft));
    save("steiner", to_svg(FlatTree(build_one_steiner(net).tree)));
    save("mst", to_svg(FlatTree(build_mst_tree(net))));
    save("spt", to_svg(FlatTree(build_spt(net))));
    save("brbc05", to_svg(FlatTree(build_brbc(net, 0.5))));

    // Wiresized A-tree: stroke width follows the optimal assignment.
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    const CombinedResult sized = grewsa_owsa(ctx);
    std::vector<double> norm(ctx.segment_count());
    for (std::size_t i = 0; i < ctx.segment_count(); ++i)
        norm[i] = ctx.widths()[sized.assignment[i]];
    save("atree_wiresized", to_svg_wiresized(ft, ctx.seg_tail_flat(), norm));

    std::cout << "\nOpen the .svg files in a browser; the wiresized A-tree "
                 "shows the monotone width wavefront radiating from the red "
                 "driver square.\n";
    return 0;
}
