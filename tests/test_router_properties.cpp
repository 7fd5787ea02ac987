// Cross-router property suite: every router must produce a valid spanning
// tree with sane metrics on degenerate and adversarial net shapes --
// single sinks, coincident terminals, collinear runs, axis-aligned stars,
// dense clusters, and large coordinates.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>

#include "atree/critical.h"
#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

using Router = std::function<RoutingTree(const Net&)>;

struct RouterCase {
    const char* name;
    Router route;
};

std::vector<RouterCase> all_routers()
{
    return {
        {"atree", [](const Net& n) { return build_atree_general(n).tree; }},
        {"steiner", [](const Net& n) { return build_one_steiner(n).tree; }},
        {"mst", [](const Net& n) { return build_mst_tree(n); }},
        {"spt", [](const Net& n) { return build_spt(n); }},
        {"brbc05", [](const Net& n) { return build_brbc(n, 0.5); }},
        {"brbc10m",
         [](const Net& n) { return build_brbc(n, 1.0, BrbcRadius::mst_path); }},
        {"critical0",
         [](const Net& n) { return build_atree_critical(n, {0}).tree; }},
    };
}

struct ShapeCase {
    const char* name;
    Net net;
};

std::vector<ShapeCase> all_shapes()
{
    std::vector<ShapeCase> shapes;
    shapes.push_back({"single_sink", {{10, 10}, {{17, 3}}}});
    shapes.push_back({"sink_east", {{0, 0}, {{9, 0}}}});
    shapes.push_back({"coincident_sinks", {{0, 0}, {{5, 5}, {5, 5}, {5, 5}}}});
    shapes.push_back({"collinear_h", {{5, 0}, {{0, 0}, {2, 0}, {9, 0}, {7, 0}}}});
    shapes.push_back({"collinear_v", {{0, 5}, {{0, 0}, {0, 2}, {0, 9}, {0, 7}}}});
    shapes.push_back(
        {"axis_star", {{10, 10}, {{10, 20}, {20, 10}, {10, 0}, {0, 10}}}});
    shapes.push_back(
        {"corners", {{50, 50}, {{0, 0}, {0, 100}, {100, 0}, {100, 100}}}});
    shapes.push_back({"dense_cluster",
                      {{3, 3}, {{4, 3}, {3, 4}, {2, 3}, {3, 2}, {4, 4}, {2, 2}}}});
    shapes.push_back({"large_coords",
                      {{1000000, 1000000}, {{1900000, 1200000}, {400000, 1800000}}}});
    std::mt19937_64 rng(31415);
    std::uniform_int_distribution<Coord> c(0, 500);
    Net random_net{{250, 250}, {}};
    for (int i = 0; i < 9; ++i) random_net.sinks.push_back({c(rng), c(rng)});
    shapes.push_back({"random9", random_net});
    return shapes;
}

TEST(RouterProperties, AllRoutersAllShapes)
{
    const Technology tech = mcm_technology();
    for (const RouterCase& rc : all_routers()) {
        for (const ShapeCase& sc : all_shapes()) {
            SCOPED_TRACE(std::string(rc.name) + " on " + sc.name);
            const RoutingTree tree = rc.route(sc.net);
            require_valid(tree, sc.net);

            const FlatTree ft(tree);
            // Radius can never beat the direct distance.
            EXPECT_GE(radius(ft), net_radius(sc.net));
            // Wirelength covers at least the farthest sink.
            EXPECT_GE(total_length(ft), net_radius(sc.net));
            // Sink path lengths are bounded below by direct distances.
            for (const NodeId s : tree.sinks())
                EXPECT_GE(tree.path_length(s), dist(sc.net.source, tree.point(s)));

            // Delay models produce finite positive numbers.
            if (!tree.sinks().empty() && total_length(ft) > 0) {
                const DelayReport d = measure_delay(ft, tech);
                EXPECT_GT(d.mean, 0.0);
                EXPECT_TRUE(std::isfinite(d.mean));
                EXPECT_GE(d.max, d.mean);
            }
        }
    }
}

TEST(RouterProperties, SptAndAtreeAreAlwaysShortestPath)
{
    for (const ShapeCase& sc : all_shapes()) {
        SCOPED_TRACE(sc.name);
        for (const RoutingTree& tree :
             {build_atree_general(sc.net).tree, build_spt(sc.net)}) {
            for (const NodeId s : tree.sinks())
                EXPECT_EQ(tree.path_length(s), dist(sc.net.source, tree.point(s)));
        }
    }
}

TEST(RouterProperties, MstIsShortestOfTheSpanningHeuristics)
{
    // The MST minimizes length among terminal-spanning trees, so 1-Steiner
    // (which may add Steiner points) is the only router allowed to beat it.
    for (const ShapeCase& sc : all_shapes()) {
        SCOPED_TRACE(sc.name);
        const Length mst = total_length(FlatTree(build_mst_tree(sc.net)));
        EXPECT_LE(total_length(FlatTree(build_one_steiner(sc.net).tree)), mst);
        EXPECT_GE(total_length(FlatTree(build_spt(sc.net))), 0);
    }
}

TEST(RouterProperties, RouterDeterminism)
{
    // Same net in, identical tree out (bitwise metrics), for every router.
    for (const RouterCase& rc : all_routers()) {
        for (const ShapeCase& sc : all_shapes()) {
            SCOPED_TRACE(std::string(rc.name) + " on " + sc.name);
            const FlatTree a(rc.route(sc.net));
            const FlatTree b(rc.route(sc.net));
            EXPECT_EQ(total_length(a), total_length(b));
            EXPECT_EQ(sum_all_node_path_lengths(a), sum_all_node_path_lengths(b));
            EXPECT_EQ(a.size(), b.size());
        }
    }
}

}  // namespace
}  // namespace cong93
