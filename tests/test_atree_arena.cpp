// emit_atree (atree/generalized.h) against the RoutingTree construction:
// the rows it emits, once finished, must be exactly the arrays FlatTree
// compiles from build_atree_general(net).tree, on one AtreeScratch and one
// FlatTree reused across nets that grow, shrink and throw -- and replaying
// a prior emission's unchanged quadrants must emit what building them does.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "rtree/flat_tree.h"

namespace cong93 {
namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_flat_eq(const FlatTree& got, const FlatTree& want, const char* what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(got.parent(), want.parent()) << what;
    EXPECT_EQ(got.edge_length(), want.edge_length()) << what;
    EXPECT_EQ(got.path_length(), want.path_length()) << what;
    EXPECT_EQ(got.is_sink(), want.is_sink()) << what;
    EXPECT_TRUE(same_bits(got.sink_cap(), want.sink_cap())) << what;
    EXPECT_EQ(got.point(), want.point()) << what;
    EXPECT_EQ(got.seg_boundary(), want.seg_boundary()) << what;
    EXPECT_EQ(got.child_ptr(), want.child_ptr()) << what;
    EXPECT_EQ(got.child_idx(), want.child_idx()) << what;
    EXPECT_EQ(got.sinks(), want.sinks()) << what;
    EXPECT_EQ(got.node_of(), want.node_of()) << what;
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got.flat_of(static_cast<NodeId>(i)),
                  want.flat_of(static_cast<NodeId>(i)))
            << what << " node " << i;
}

/// Emits `net` into the shared scratch/arena and compares it with the
/// compiled RoutingTree construction.
void expect_emitted_eq(const Net& net, AtreeScratch& scratch, FlatTree& flat,
                       const char* what)
{
    emit_atree(net, scratch, flat);
    flat.finish();
    expect_flat_eq(flat, FlatTree(build_atree_general(net).tree), what);
}

/// Random nets whose sizes grow and shrink, so the reused buffers see both.
std::vector<Net> mixed_nets(std::uint64_t seed)
{
    std::vector<Net> nets;
    for (const int n : {3, 40, 1, 120, 7, 2, 64, 16})
        for (const Net& net : random_nets(seed + static_cast<std::uint64_t>(n), 2,
                                          kMcmGrid, n))
            nets.push_back(net);
    return nets;
}

/// A net whose combined QMST cost overflows int64 while each quadrant's
/// does not: two sinks at opposite corners of the int32 range.
Net overflowing_net()
{
    constexpr Coord kFar = 2147483647;  // 2^31 - 1
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{kFar, kFar}, Point{-kFar, -kFar}};
    return net;
}

TEST(AtreeArena, RandomNetsMatchTheCompiledGeneralTree)
{
    AtreeScratch scratch;
    FlatTree flat;
    for (const Net& net : mixed_nets(71)) expect_emitted_eq(net, scratch, flat, "random");
}

TEST(AtreeArena, CornerSourceNetsMatch)
{
    AtreeScratch scratch;
    FlatTree flat;
    for (const int n : {2, 30, 5, 90, 12})
        for (const Net& net : random_corner_nets(72 + static_cast<std::uint64_t>(n), 2,
                                                 kMcmGrid, n))
            expect_emitted_eq(net, scratch, flat, "corner source");
}

TEST(AtreeArena, AxisDuplicateAndSourceSinksMatch)
{
    AtreeScratch scratch;
    FlatTree flat;
    // Hand-made: axis sinks on all four half-axes, a duplicate pair with
    // different loads (the later load wins), and two sinks on the source.
    Net net;
    net.source = Point{50, 50};
    net.sinks = {{50, 80}, {20, 50}, {50, 10}, {90, 50}, {70, 70}, {70, 70},
                 {50, 50}, {30, 20}, {50, 50}, {90, 10}, {60, 50}, {50, 60}};
    net.sink_caps = {1e-15, -1.0, 2e-15, 3e-15, 4e-15, 5e-15,
                     6e-15, 7e-15, -1.0,  8e-15, 9e-15, 1e-14};
    expect_emitted_eq(net, scratch, flat, "hand-made");

    // Random nets snapped to a coarse lattice around the source, so axis
    // sinks, duplicates and source-coincident sinks are all common.
    std::mt19937_64 rng(73);
    std::uniform_int_distribution<int> step(-3, 3);
    std::uniform_int_distribution<int> count(1, 24);
    for (int k = 0; k < 40; ++k) {
        Net m;
        m.source = Point{100, 100};
        const int n = count(rng);
        for (int i = 0; i < n; ++i) {
            m.sinks.push_back(Point{static_cast<Coord>(100 + 10 * step(rng)),
                                    static_cast<Coord>(100 + 10 * step(rng))});
            m.sink_caps.push_back(1e-15 * static_cast<double>(i + 1));
        }
        expect_emitted_eq(m, scratch, flat, "lattice");
    }
}

TEST(AtreeArena, NetsAtTheCoordinateBoxEdgeMatch)
{
    constexpr Coord kEdge = (Coord{1} << 28) - 1;
    AtreeScratch scratch;
    FlatTree flat;
    std::mt19937_64 rng(74);
    std::uniform_int_distribution<Coord> coord(-kEdge, kEdge);
    for (const Point source : {Point{0, 0}, Point{-kEdge, -kEdge}, Point{kEdge, -kEdge}}) {
        for (const int n : {48, 4}) {
            Net net;
            net.source = source;
            for (int i = 0; i < n; ++i) net.sinks.push_back(Point{coord(rng), coord(rng)});
            net.sinks.push_back(Point{kEdge, kEdge});
            net.sinks.push_back(Point{-kEdge, source.y});
            expect_emitted_eq(net, scratch, flat, "box edge");
        }
    }
}

TEST(AtreeArena, ScratchReusedRightAfterAThrowingConstruction)
{
    AtreeScratch scratch;
    FlatTree flat;
    const Net bad = overflowing_net();
    EXPECT_THROW(build_atree_general(bad), std::overflow_error);
    const std::vector<Net> nets = mixed_nets(75);
    for (const Net& net : nets) {
        EXPECT_THROW(emit_atree(bad, scratch, flat), std::overflow_error);
        expect_emitted_eq(net, scratch, flat, "after a throw");
    }
}

TEST(AtreeArena, WarmScratchStopsGrowing)
{
    AtreeScratch scratch;
    FlatTree flat;
    const std::vector<Net> nets = mixed_nets(76);
    for (const Net& net : nets) expect_emitted_eq(net, scratch, flat, "first pass");
    EXPECT_GT(scratch.growths, 0u);
    const std::uint64_t growths = scratch.growths;
    const std::uint64_t flat_growths = flat.growths();
    const std::size_t bytes = scratch.capacity_bytes();
    for (const Net& net : nets) expect_emitted_eq(net, scratch, flat, "second pass");
    EXPECT_EQ(scratch.growths, growths);
    EXPECT_EQ(flat.growths(), flat_growths);
    EXPECT_EQ(scratch.capacity_bytes(), bytes);
}

/// Emits `net` into the shared scratch/arena replaying the rows of an
/// emission of `prior_net`, and compares the arrays with a from-scratch
/// emission of `net`.  Returns the number of quadrants the two nets share
/// (non-empty and with equal partitioned sink lists: the replayed ones).
std::size_t expect_replayed_eq(const Net& prior_net, const Net& net,
                               AtreeScratch& scratch, FlatTree& flat,
                               const char* what)
{
    emit_atree(prior_net, scratch, flat);
    flat.finish();
    AtreeRows rows;
    rows.capture(scratch, flat);

    emit_atree(net, scratch, flat, {}, &rows);
    flat.finish();
    AtreeScratch fresh_scratch;
    FlatTree fresh;
    emit_atree(net, fresh_scratch, fresh);
    fresh.finish();
    expect_flat_eq(flat, fresh, what);

    const QuadrantPartition part = partition_quadrants(net);
    std::size_t shared = 0;
    for (std::size_t q = 0; q < 4; ++q)
        if (!part.quads[q].empty() && part.quads[q] == rows.part.quads[q]) ++shared;
    return shared;
}

/// `net` with sink k moved to `to` and the whole net shifted by (dx, dy):
/// the quadrants k's move leaves alone keep their source-relative sinks.
Net edited(Net net, std::size_t k, Point to, Coord dx, Coord dy)
{
    net.sinks[k] = to;
    net.source = Point{static_cast<Coord>(net.source.x + dx),
                       static_cast<Coord>(net.source.y + dy)};
    for (Point& p : net.sinks)
        p = Point{static_cast<Coord>(p.x + dx), static_cast<Coord>(p.y + dy)};
    return net;
}

TEST(AtreeArena, ReplayedQuadrantsEmitLikeAFreshEmission)
{
    AtreeScratch scratch;
    FlatTree flat;
    std::mt19937_64 rng(78);
    std::uniform_int_distribution<Coord> coord(0, kMcmGrid);
    std::size_t shared = 0;
    for (const Net& net : mixed_nets(78)) {
        const std::size_t k = rng() % net.sinks.size();
        const Net prior = edited(net, k, Point{coord(rng), coord(rng)},
                                 static_cast<Coord>(rng() % 7) - 3, 5);
        shared += expect_replayed_eq(prior, net, scratch, flat, "random");
        // The net as its own prior replays every quadrant.
        expect_replayed_eq(net, net, scratch, flat, "self");
    }
    EXPECT_GT(shared, 0u);

    // Hand-made: axis sinks, a duplicate pair and a sink on the source.  The
    // prior, shifted, has the (+,-) sink elsewhere in its quadrant, so (+,+)
    // and (-,-) replay while (+,-) builds.
    Net net;
    net.source = Point{50, 50};
    net.sinks = {{50, 80}, {20, 50}, {50, 10}, {90, 50}, {70, 70},
                 {70, 70}, {50, 50}, {30, 20}, {90, 10}, {60, 50}};
    net.sink_caps = {1e-15, -1.0, 2e-15, 3e-15, 4e-15, 5e-15, 6e-15, 7e-15, 8e-15, 9e-15};
    const Net prior = edited(net, 8, Point{80, 20}, -7, 3);
    EXPECT_EQ(expect_replayed_eq(prior, net, scratch, flat, "hand-made"), 2u);

    // The combined QMST cost overflows int64 although no quadrant's does:
    // replaying the (+,+) quadrant and building the (-,-) one still throws.
    const Net bad = overflowing_net();
    Net half = bad;
    half.sinks.pop_back();
    emit_atree(half, scratch, flat);
    flat.finish();
    AtreeRows rows;
    rows.capture(scratch, flat);
    EXPECT_THROW(emit_atree(bad, scratch, flat, {}, &rows), std::overflow_error);
    expect_replayed_eq(prior, net, scratch, flat, "after a throw");
}

TEST(AtreeArena, EmissionCountsOneBuildAtFinish)
{
    AtreeScratch scratch;
    FlatTree flat;
    const std::uint64_t before = flat_tree_compiles();
    emit_atree(random_nets(77, 1, kMcmGrid, 9).front(), scratch, flat);
    EXPECT_EQ(flat.builds(), 0u);
    EXPECT_EQ(flat_tree_compiles(), before);
    flat.finish();
    EXPECT_EQ(flat.builds(), 1u);
    EXPECT_EQ(flat_tree_compiles() - before, 1u);
}

}  // namespace
}  // namespace cong93
