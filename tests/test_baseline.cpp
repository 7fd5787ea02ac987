#include <gtest/gtest.h>

#include <random>

#include "baseline/brbc.h"
#include "baseline/exact_steiner.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "netgen/netgen.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"

namespace cong93 {
namespace {

TEST(Mst, TwoPoints)
{
    const std::vector<Point> pts{{0, 0}, {3, 4}};
    EXPECT_EQ(rectilinear_mst_cost(pts), 7);
    const auto parent = rectilinear_mst_parents(pts, 0);
    EXPECT_EQ(parent[0], -1);
    EXPECT_EQ(parent[1], 0);
}

TEST(Mst, Collinear)
{
    const std::vector<Point> pts{{0, 0}, {10, 0}, {5, 0}};
    EXPECT_EQ(rectilinear_mst_cost(pts), 10);
}

TEST(Mst, TreeSpansNet)
{
    const auto nets = random_nets(101, 10, 200, 6);
    for (const Net& net : nets) {
        const RoutingTree t = build_mst_tree(net);
        require_valid(t, net);
        EXPECT_EQ(total_length(FlatTree(t)), rectilinear_mst_cost(net.terminals()));
    }
}

TEST(Spt, PathsAreShortest)
{
    const auto nets = random_nets(202, 10, 200, 8);
    for (const Net& net : nets) {
        const RoutingTree t = build_spt(net);
        require_valid(t, net);
        for (const NodeId s : t.sinks())
            EXPECT_EQ(t.path_length(s), dist(net.source, t.point(s)));
        // SPT optimizes t2 exactly: the sum of sink path lengths is minimal.
        Length direct = 0;
        for (const Point s : net.sinks) direct += dist(net.source, s);
        EXPECT_EQ(sum_sink_path_lengths(FlatTree(t)), direct);
    }
}

TEST(Spt, SharesCommonTrunk)
{
    // Two sinks stacked: trunk shared.
    const Net net{{0, 0}, {{0, 5}, {0, 9}}};
    const RoutingTree t = build_spt(net);
    EXPECT_EQ(total_length(FlatTree(t)), 9);
}

TEST(OneSteiner, ImprovesOverMstOnCross)
{
    // Four corners of a 2x2 square around nothing: the 1-Steiner point in the
    // middle saves length: MST = 6, Steiner = 6? For corners (0,0),(2,0),
    // (0,2),(2,2): MST 6, optimal 6. Use the classic T: MST 4+... choose a
    // configuration with a known gain: (0,0),(4,0),(2,3).
    const Net net{{0, 0}, {{4, 0}, {2, 3}}};
    const auto r = build_one_steiner(net);
    require_valid(r.tree, net);
    // Optimal: Steiner point at (2,0): cost 4 + 3 = 7; MST = 4 + 5 = 9.
    EXPECT_EQ(r.final_cost, 7);
    EXPECT_EQ(total_length(FlatTree(r.tree)), 7);
    EXPECT_EQ(r.mst_cost, 9);
}

TEST(OneSteiner, NeverWorseThanMst)
{
    const auto nets = random_nets(303, 15, 300, 8);
    for (const Net& net : nets) {
        const auto r = build_one_steiner(net);
        require_valid(r.tree, net);
        EXPECT_LE(r.final_cost, r.mst_cost);
        EXPECT_EQ(total_length(FlatTree(r.tree)), r.final_cost);
    }
}

TEST(OneSteiner, CloseToOptimalOnSmallNets)
{
    // Batched 1-Steiner is consistently within a few percent of the RSMT.
    const auto nets = random_nets(404, 10, 60, 5);
    for (const Net& net : nets) {
        const auto r = build_one_steiner(net);
        const Length opt = exact_steiner_cost(net);
        EXPECT_LE(opt, r.final_cost);
        EXPECT_LE(static_cast<double>(r.final_cost), 1.10 * static_cast<double>(opt));
    }
}

TEST(Brbc, RadiusGuarantee)
{
    const auto nets = random_nets(505, 12, 400, 8);
    for (const Net& net : nets) {
        for (const double eps : {0.25, 0.5, 1.0}) {
            const RoutingTree t = build_brbc(net, eps);
            require_valid(t, net);
            const double r = static_cast<double>(net_radius(net));
            EXPECT_LE(static_cast<double>(radius(FlatTree(t))), (1.0 + eps) * r + 1e-9)
                << "eps=" << eps;
        }
    }
}

TEST(Brbc, CostGuarantee)
{
    const auto nets = random_nets(606, 12, 400, 8);
    for (const Net& net : nets) {
        const Length mst = rectilinear_mst_cost(net.terminals());
        for (const double eps : {0.5, 1.0}) {
            const RoutingTree t = build_brbc(net, eps);
            EXPECT_LE(static_cast<double>(total_length(FlatTree(t))),
                      (1.0 + 2.0 / eps) * static_cast<double>(mst) + 1e-9);
        }
    }
}

TEST(Brbc, EpsilonZeroIsSpt)
{
    // eps = 0 shortcuts every tour node: radius equals the net radius.
    const auto nets = random_nets(707, 8, 300, 6);
    for (const Net& net : nets) {
        const RoutingTree t = build_brbc(net, 0.0);
        EXPECT_EQ(radius(FlatTree(t)), net_radius(net));
    }
}

TEST(Brbc, LargerEpsilonNoLongerRadius)
{
    // Monotone tradeoff in expectation: eps = infinity-ish behaves like MST.
    const auto nets = random_nets(808, 8, 300, 8);
    for (const Net& net : nets) {
        const RoutingTree loose = build_brbc(net, 1000.0);
        EXPECT_EQ(total_length(FlatTree(loose)), rectilinear_mst_cost(net.terminals()));
    }
}

TEST(Brbc, RejectsNegativeEpsilon)
{
    EXPECT_THROW(build_brbc(Net{{0, 0}, {{1, 1}}}, -0.5), std::invalid_argument);
}

}  // namespace
}  // namespace cong93
