#include <gtest/gtest.h>

#include <random>

#include "atree/atree.h"
#include "atree/exact_rsa.h"
#include "baseline/exact_steiner.h"
#include "baseline/mst.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"

namespace cong93 {
namespace {

Net random_first_quadrant_net(std::mt19937_64& rng, int sinks, Coord span)
{
    std::uniform_int_distribution<Coord> c(0, span);
    Net net;
    net.source = Point{0, 0};
    for (int i = 0; i < sinks; ++i) net.sinks.push_back(Point{c(rng), c(rng)});
    return net;
}

TEST(ExactRsa, SingleSink)
{
    const Net net{{0, 0}, {{4, 6}}};
    const auto r = exact_rsa(net);
    EXPECT_EQ(r.cost, 10);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
}

TEST(ExactRsa, StaircaseSharing)
{
    // (1,3),(2,2),(3,1): optimum 7 -- branch at (1,1) for (1,3) and at
    // (2,1) for (3,1) and (2,2).
    const Net net{{0, 0}, {{1, 3}, {2, 2}, {3, 1}}};
    EXPECT_EQ(exact_rsa_cost(net), 7);
}

TEST(ExactRsa, TwoIndependentSinks)
{
    // (5,0) and (0,5): no sharing possible; cost 10.
    const Net net{{0, 0}, {{5, 0}, {0, 5}}};
    EXPECT_EQ(exact_rsa_cost(net), 10);
}

TEST(ExactRsa, SharedCornerPair)
{
    // (4,5) and (5,4): share a path to (4,4); cost = 8 + 1 + 1 = 10.
    const Net net{{0, 0}, {{4, 5}, {5, 4}}};
    EXPECT_EQ(exact_rsa_cost(net), 10);
}

TEST(ExactRsa, TreeIsValidAtree)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 15; ++trial) {
        const Net net = random_first_quadrant_net(rng, 5, 12);
        const auto r = exact_rsa(net);
        require_valid(r.tree, net);
        EXPECT_TRUE(is_atree(r.tree));
        EXPECT_EQ(total_length(FlatTree(r.tree)), r.cost);
    }
}

TEST(ExactRsa, NeverBeatenByHeuristic)
{
    std::mt19937_64 rng(13);
    for (int trial = 0; trial < 25; ++trial) {
        const Net net = random_first_quadrant_net(rng, 6, 20);
        const Length opt = exact_rsa_cost(net);
        const AtreeResult heur = build_atree(net);
        EXPECT_LE(opt, heur.cost);
        // The paper's online lower bound must be <= the true optimum.
        EXPECT_LE(heur.lower_bound(), opt);
    }
}

TEST(ExactRsa, AllSafeConstructionIsOptimal)
{
    // Corollary 3: when the A-tree used safe moves only its cost is optimal.
    std::mt19937_64 rng(17);
    int all_safe_seen = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const Net net = random_first_quadrant_net(rng, 5, 16);
        const AtreeResult heur = build_atree(net);
        if (!heur.all_safe()) continue;
        ++all_safe_seen;
        EXPECT_EQ(heur.cost, exact_rsa_cost(net));
        // Corollary 4: also optimal under the QMST cost.
        EXPECT_EQ(heur.qmst_cost, exact_rsa_cost(net, RsaCost::qmst));
    }
    EXPECT_GT(all_safe_seen, 5);  // safe-only constructions are common
}

TEST(ExactRsa, QmstModeMatchesMetric)
{
    std::mt19937_64 rng(19);
    for (int trial = 0; trial < 10; ++trial) {
        const Net net = random_first_quadrant_net(rng, 5, 10);
        const auto r = exact_rsa(net, RsaCost::qmst);
        EXPECT_EQ(r.cost, sum_all_node_path_lengths(FlatTree(r.tree)));
        // The QMST optimum over arborescences lower-bounds every A-tree.
        const AtreeResult heur = build_atree(net);
        EXPECT_LE(r.cost, heur.qmst_cost);
        EXPECT_LE(heur.qmst_lower_bound(), r.cost);
    }
}

TEST(ExactRsa, RejectsBadInput)
{
    EXPECT_THROW(exact_rsa(Net{{0, 0}, {{-1, 2}}}), std::invalid_argument);
    const Net big{{0, 0}, std::vector<Point>(17, Point{1, 1})};
    EXPECT_THROW(exact_rsa(big), std::invalid_argument);
}

TEST(ExactSteiner, KnownInstances)
{
    // Cross: four sinks around the source; RSMT = 4 star arms... star = 8;
    // no Steiner point helps a plus shape.
    const Net cross{{1, 1}, {{0, 1}, {2, 1}, {1, 0}, {1, 2}}};
    EXPECT_EQ(exact_steiner_cost(cross), 4);

    // Classic 4-corner instance: unit square corners, RSMT = 3.
    const Net square{{0, 0}, {{1, 0}, {0, 1}, {1, 1}}};
    EXPECT_EQ(exact_steiner_cost(square), 3);

    // 2x2 square with side 2: RSMT = 6.
    const Net square2{{0, 0}, {{2, 0}, {0, 2}, {2, 2}}};
    EXPECT_EQ(exact_steiner_cost(square2), 6);
}

TEST(ExactSteiner, BeatsOrMatchesMst)
{
    std::mt19937_64 rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        const Net net = random_first_quadrant_net(rng, 5, 15);
        const Length opt = exact_steiner_cost(net);
        const Length mst = rectilinear_mst_cost(net.terminals());
        EXPECT_LE(opt, mst);
        // Known Steiner ratio for rectilinear MST: mst <= 1.5 * opt.
        EXPECT_LE(mst, (opt * 3 + 1) / 2);
        const auto r = exact_steiner(net);
        require_valid(r.tree, net);
        EXPECT_EQ(total_length(FlatTree(r.tree)), opt);
    }
}

TEST(ExactSteiner, LowerBoundsArborescence)
{
    // Any arborescence is a Steiner tree, so OST <= optimal RSA.
    std::mt19937_64 rng(29);
    for (int trial = 0; trial < 15; ++trial) {
        const Net net = random_first_quadrant_net(rng, 5, 12);
        EXPECT_LE(exact_steiner_cost(net), exact_rsa_cost(net));
    }
}

TEST(ExactSteiner, HandlesDuplicates)
{
    const Net net{{0, 0}, {{2, 2}, {2, 2}, {0, 0}}};
    EXPECT_EQ(exact_steiner_cost(net), 4);
}

}  // namespace
}  // namespace cong93
