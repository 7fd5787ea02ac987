// Randomized equivalence suite for the indexed forest query engine
// (atree/seg_index.h + the Forest `analyze`/`covers`/`nearest_dominated_dist`/
// `first_contact` fast paths) against the seed `*_reference` full scans, and
// for MoveEngine Mode::indexed vs Mode::reference bit-identity.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "atree/atree.h"
#include "atree/forest.h"
#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "rtree/io.h"

namespace cong93 {
namespace {

std::vector<Point> random_sinks(std::mt19937_64& rng, int n, Coord grid)
{
    std::uniform_int_distribution<Coord> coord(0, grid);
    std::vector<Point> sinks;
    sinks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) sinks.push_back({coord(rng), coord(rng)});
    return sinks;
}

void expect_query_eq(const Forest::RootQuery& a, const Forest::RootQuery& b,
                     const char* what)
{
    EXPECT_EQ(a.dx, b.dx) << what;
    EXPECT_EQ(a.dy, b.dy) << what;
    EXPECT_EQ(a.df, b.df) << what;
    EXPECT_EQ(a.mx, b.mx) << what;
    EXPECT_EQ(a.my, b.my) << what;
    EXPECT_EQ(a.mf_west, b.mf_west) << what;
    EXPECT_EQ(a.mf_south, b.mf_south) << what;
}

/// Compares every indexed query against its reference twin on the forest as
/// it stands: analyze for every root, plus random point/leg probes.
void cross_check(const Forest& f, std::mt19937_64& rng, Coord grid)
{
    for (const int rid : f.roots())
        expect_query_eq(f.analyze(rid), f.analyze_reference(rid), "analyze");

    std::uniform_int_distribution<Coord> coord(0, grid);
    std::uniform_int_distribution<int> pick_tree(-1, static_cast<int>(f.roots().size()) - 1);
    for (int probe = 0; probe < 24; ++probe) {
        const Point p{coord(rng), coord(rng)};
        EXPECT_EQ(f.covers(p), f.covers_reference(p));
        const int picked = pick_tree(rng);
        const int excl =
            picked < 0 ? -1 : f.node(f.roots()[static_cast<std::size_t>(picked)]).tree;
        EXPECT_EQ(f.nearest_dominated_dist(p, excl),
                  f.nearest_dominated_dist_reference(p, excl));

        Leg leg;
        leg.from = p;
        const int dir = probe % 4;
        leg.dx = dir == 0 ? -1 : dir == 1 ? 1 : 0;
        leg.dy = dir == 2 ? -1 : dir == 3 ? 1 : 0;
        leg.len = 1 + coord(rng) % grid;
        const int own = f.node(f.roots()[static_cast<std::size_t>(
                                   probe % static_cast<int>(f.roots().size()))])
                            .tree;
        EXPECT_EQ(f.first_contact(leg, own), f.first_contact_reference(leg, own));
    }
}

TEST(ForestIndex, MidConstructionEquivalence)
{
    std::mt19937_64 rng(93);
    for (const int n : {3, 7, 15, 30}) {
        for (int rep = 0; rep < 3; ++rep) {
            const Coord grid = 60;
            Forest f(Point{0, 0}, random_sinks(rng, n, grid));
            MoveEngine engine(f, HeuristicPolicy::farthest_corner);
            cross_check(f, rng, grid);
            while (engine.step()) cross_check(f, rng, grid);
        }
    }
}

TEST(ForestIndex, MidConstructionEquivalenceMinSb)
{
    std::mt19937_64 rng(177);
    const Coord grid = 200;
    Forest f(Point{0, 0}, random_sinks(rng, 20, grid));
    MoveEngine engine(f, HeuristicPolicy::min_suboptimality);
    cross_check(f, rng, grid);
    while (engine.step()) cross_check(f, rng, grid);
}

// ------------------------------------------------------------ bit-identity

std::vector<int> children_of(const Forest& f, int id)
{
    std::vector<int> out;
    for (const int c : f.children(id)) out.push_back(c);
    return out;
}

void expect_forest_eq(const Forest& a, const Forest& b)
{
    ASSERT_EQ(a.node_count(), b.node_count());
    for (std::size_t i = 0; i < a.node_count(); ++i) {
        const auto& na = a.node(static_cast<int>(i));
        const auto& nb = b.node(static_cast<int>(i));
        EXPECT_EQ(na.p, nb.p) << "node " << i;
        EXPECT_EQ(na.parent, nb.parent) << "node " << i;
        EXPECT_EQ(children_of(a, static_cast<int>(i)), children_of(b, static_cast<int>(i)))
            << "node " << i;
        EXPECT_EQ(na.tree, nb.tree) << "node " << i;
        EXPECT_EQ(na.terminal, nb.terminal) << "node " << i;
    }
    EXPECT_EQ(a.roots(), b.roots());
    EXPECT_EQ(a.total_length(), b.total_length());
}

void expect_record_eq(const MoveRecord& ra, const MoveRecord& rb, std::size_t i)
{
    EXPECT_EQ(ra.type, rb.type) << "move " << i;
    EXPECT_EQ(ra.from1, rb.from1) << "move " << i;
    EXPECT_EQ(ra.from2, rb.from2) << "move " << i;
    EXPECT_EQ(ra.to, rb.to) << "move " << i;
    EXPECT_EQ(ra.added, rb.added) << "move " << i;
    EXPECT_EQ(ra.sb, rb.sb) << "move " << i;
    EXPECT_EQ(ra.sb_qmst, rb.sb_qmst) << "move " << i;
}

void expect_log_eq(const MoveEngine& a, const MoveEngine& b)
{
    ASSERT_EQ(a.log().size(), b.log().size());
    for (std::size_t i = 0; i < a.log().size(); ++i)
        expect_record_eq(a.log()[i], b.log()[i], i);
    EXPECT_EQ(a.safe_moves(), b.safe_moves());
    EXPECT_EQ(a.heuristic_moves(), b.heuristic_moves());
    EXPECT_EQ(a.sb_total(), b.sb_total());
    EXPECT_EQ(a.sb_qmst_total(), b.sb_qmst_total());
}

// The reference-vs-indexed construction cases, one test per policy and
// size so ctest can spread them over processes.  Every random case draws its
// sinks from one seed-4242 stream in a fixed order (farthest_corner sizes 5,
// 12, 40, 200, then min_suboptimality sizes 5, 12, 40, 80), so each test
// replays the stream up to its own case.

struct StreamCase {
    HeuristicPolicy policy;
    int n;
};

constexpr StreamCase kStreamCases[] = {
    {HeuristicPolicy::farthest_corner, 5},    {HeuristicPolicy::farthest_corner, 12},
    {HeuristicPolicy::farthest_corner, 40},   {HeuristicPolicy::farthest_corner, 200},
    {HeuristicPolicy::min_suboptimality, 5},  {HeuristicPolicy::min_suboptimality, 12},
    {HeuristicPolicy::min_suboptimality, 40}, {HeuristicPolicy::min_suboptimality, 80},
};

/// The sinks of the stream case with this policy and size.
std::vector<Point> stream_case_sinks(HeuristicPolicy policy, int n)
{
    std::mt19937_64 rng(4242);
    for (const StreamCase& c : kStreamCases) {
        const Coord grid = static_cast<Coord>(10 * c.n);
        std::vector<Point> sinks = random_sinks(rng, c.n, grid);
        if (c.policy == policy && c.n == n) return sinks;
    }
    ADD_FAILURE() << "no stream case with " << n << " sinks";
    return {};
}

void expect_stream_case_identical(HeuristicPolicy policy, int n)
{
    const std::vector<Point> sinks = stream_case_sinks(policy, n);
    ASSERT_FALSE(sinks.empty());

    Forest fr(Point{0, 0}, sinks);
    MoveEngine er(fr, policy, true, Mode::reference);
    er.run();

    Forest fi(Point{0, 0}, sinks);
    MoveEngine ei(fi, policy, true, Mode::indexed);
    ei.run();

    expect_forest_eq(fr, fi);
    expect_log_eq(er, ei);
}

/// Step-range form of expect_stream_case_identical, so that ctest can spread
/// one long reference construction over several processes: runs the
/// indexed engine to step `from`, copies its forest, then steps a reference
/// engine on the copy beside the indexed one up to step `to` (to the end
/// when `to` is negative) and compares the forests and the two log slices.
/// The reference engine keeps no state between steps besides its log, so
/// starting it mid-construction replays the same moves.
void expect_stream_steps_identical(HeuristicPolicy policy, int n, int from, int to)
{
    const std::vector<Point> sinks = stream_case_sinks(policy, n);
    ASSERT_FALSE(sinks.empty());
    Forest fi(Point{0, 0}, sinks);
    MoveEngine ei(fi, policy, true, Mode::indexed);
    for (int k = 0; k < from; ++k) ASSERT_TRUE(ei.step()) << "forest done at step " << k;

    Forest fr = fi;
    MoveEngine er(fr, policy, true, Mode::reference);
    for (int k = from; to < 0 || k < to; ++k) {
        const bool moved = ei.step();
        ASSERT_EQ(er.step(), moved) << "step " << k;
        if (!moved) {
            ASSERT_LT(to, 0) << "forest done at step " << k << ", before " << to;
            break;
        }
    }
    expect_forest_eq(fr, fi);
    const std::size_t offset = static_cast<std::size_t>(from);
    ASSERT_EQ(ei.log().size(), offset + er.log().size());
    for (std::size_t i = 0; i < er.log().size(); ++i)
        expect_record_eq(er.log()[i], ei.log()[offset + i], offset + i);
}

// Corner-source nets keep every sink in one quadrant, so one A-tree carries
// the whole net: the harshest case for the reference's full-rescan queries.
void expect_corner_source_identical(HeuristicPolicy policy)
{
    for (const int n : {12, 25, 50}) {
        const Net net = random_corner_nets(93, 1, kMcmGrid, n).front();
        AtreeOptions ref, idx;
        ref.policy = idx.policy = policy;
        ref.mode = Mode::reference;
        idx.mode = Mode::indexed;
        const AtreeResult a = build_atree(net, ref);
        const AtreeResult b = build_atree(net, idx);
        EXPECT_EQ(format_tree(a.tree), format_tree(b.tree)) << n << " sinks";
        EXPECT_EQ(a.cost, b.cost);
        EXPECT_EQ(a.safe_moves, b.safe_moves);
        EXPECT_EQ(a.heuristic_moves, b.heuristic_moves);
        EXPECT_EQ(a.sb_total, b.sb_total);
        EXPECT_EQ(a.qmst_cost, b.qmst_cost);
        EXPECT_EQ(a.sb_qmst_total, b.sb_qmst_total);
    }
}

TEST(ForestIndex, BitIdenticalFarthestCornerSmall)
{
    for (const int n : {5, 12, 40})
        expect_stream_case_identical(HeuristicPolicy::farthest_corner, n);
}

// The 200-sink farthest_corner case takes 619 moves; the reference engine's
// cost per move grows with the forest, so the ranges below shrink until the
// late moves, where few roots are left.  Together they cover every move.
TEST(ForestIndex, BitIdenticalFarthestCorner200Steps0To240)
{
    expect_stream_steps_identical(HeuristicPolicy::farthest_corner, 200, 0, 240);
}

TEST(ForestIndex, BitIdenticalFarthestCorner200Steps240To320)
{
    expect_stream_steps_identical(HeuristicPolicy::farthest_corner, 200, 240, 320);
}

TEST(ForestIndex, BitIdenticalFarthestCorner200Steps320To370)
{
    expect_stream_steps_identical(HeuristicPolicy::farthest_corner, 200, 320, 370);
}

TEST(ForestIndex, BitIdenticalFarthestCorner200Steps370To520)
{
    expect_stream_steps_identical(HeuristicPolicy::farthest_corner, 200, 370, 520);
}

TEST(ForestIndex, BitIdenticalFarthestCorner200Steps520ToEnd)
{
    expect_stream_steps_identical(HeuristicPolicy::farthest_corner, 200, 520, -1);
}

TEST(ForestIndex, BitIdenticalFarthestCornerCornerSource)
{
    expect_corner_source_identical(HeuristicPolicy::farthest_corner);
}

TEST(ForestIndex, BitIdenticalMinSbSmall)
{
    for (const int n : {5, 12, 40})
        expect_stream_case_identical(HeuristicPolicy::min_suboptimality, n);
}

TEST(ForestIndex, BitIdenticalMinSb80)
{
    expect_stream_case_identical(HeuristicPolicy::min_suboptimality, 80);
}

TEST(ForestIndex, BitIdenticalMinSbCornerSource)
{
    expect_corner_source_identical(HeuristicPolicy::min_suboptimality);
}

TEST(ForestIndex, BitIdenticalHeuristicOnlyAblation)
{
    // use_safe_moves = false exercises the H1/H2 path (and the cached H2
    // epilogue query) far more often.
    std::mt19937_64 rng(7);
    const std::vector<Point> sinks = random_sinks(rng, 25, 300);
    Forest fr(Point{0, 0}, sinks);
    MoveEngine er(fr, HeuristicPolicy::farthest_corner, false, Mode::reference);
    er.run();
    Forest fi(Point{0, 0}, sinks);
    MoveEngine ei(fi, HeuristicPolicy::farthest_corner, false, Mode::indexed);
    ei.run();
    expect_forest_eq(fr, fi);
    expect_log_eq(er, ei);
}

TEST(ForestIndex, BuildAtreeGeneralModeEquality)
{
    for (const Net& net : random_nets(31, 6, 500, 24)) {
        for (const auto policy : {HeuristicPolicy::farthest_corner,
                                  HeuristicPolicy::min_suboptimality}) {
            AtreeOptions ref;
            ref.policy = policy;
            ref.mode = Mode::reference;
            AtreeOptions idx;
            idx.policy = policy;
            idx.mode = Mode::indexed;
            const AtreeResult a = build_atree_general(net, ref);
            const AtreeResult b = build_atree_general(net, idx);
            EXPECT_EQ(format_tree(a.tree), format_tree(b.tree));
            EXPECT_EQ(a.cost, b.cost);
            EXPECT_EQ(a.safe_moves, b.safe_moves);
            EXPECT_EQ(a.heuristic_moves, b.heuristic_moves);
            EXPECT_EQ(a.sb_total, b.sb_total);
            EXPECT_EQ(a.qmst_cost, b.qmst_cost);
            EXPECT_EQ(a.sb_qmst_total, b.sb_qmst_total);
        }
    }
}

// ------------------------------------------------------- cache currency

/// Steps an indexed engine to completion and, after every step, checks each
/// query the engine would serve from its cache against the full-scan
/// reference on the forest as it stands.  Final-log comparisons miss a
/// stale query that happens not to change a move; this does not.  Returns
/// the engine's mx/my re-derivations.
long expect_cache_current(const std::vector<Point>& sinks, HeuristicPolicy policy,
                          bool use_safe_moves)
{
    Forest f(Point{0, 0}, sinks);
    MoveEngine engine(f, policy, use_safe_moves);
    int checked = 0;
    while (engine.step()) {
        for (const int rid : f.roots()) {
            const auto q = engine.peek_query(rid);
            if (!q) continue;
            expect_query_eq(*q, f.analyze_reference(rid), "cached query");
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
    return engine.mxmy_rederivations();
}

TEST(ForestIndex, CachedQueriesMatchReferenceEveryStep)
{
    long rederivations = 0;
    for (const auto policy :
         {HeuristicPolicy::farthest_corner, HeuristicPolicy::min_suboptimality}) {
        SCOPED_TRACE(policy == HeuristicPolicy::farthest_corner ? "farthest_corner"
                                                                : "min_suboptimality");
        std::mt19937_64 rng(2024);
        rederivations += expect_cache_current(random_sinks(rng, 40, 400), policy, true);
        // A dense grid makes distance ties common, exercising the mf
        // tie-breaks of the df fold.
        rederivations += expect_cache_current(random_sinks(rng, 60, 30), policy, true);
        for (const int n : {5, 12, 40})
            rederivations +=
                expect_cache_current(stream_case_sinks(policy, n), policy, true);
        rederivations += expect_cache_current(
            random_corner_nets(93, 1, kMcmGrid, 50).front().sinks, policy, true);
        rederivations += expect_cache_current(random_sinks(rng, 25, 300), policy, false);
    }
    EXPECT_GT(rederivations, 0);  // the lazy mx/my path was checked too
}

/// Every applied path leaves at most one root without a cached query (its
/// new root, or a merge's survivor), so full analyses stay near the initial
/// root count plus the moves made; stale mx/my parts are re-derived alone.
void expect_analyses_bounded(const std::vector<Point>& sinks, HeuristicPolicy policy)
{
    Forest f(Point{0, 0}, sinks);
    const long initial_roots = static_cast<long>(f.roots().size());
    MoveEngine engine(f, policy);
    engine.run();
    EXPECT_GT(engine.full_analyses(), 0);
    EXPECT_LE(engine.full_analyses(),
              initial_roots + static_cast<long>(engine.log().size()));
    EXPECT_GT(engine.mxmy_rederivations(), 0);
}

TEST(ForestIndex, FullAnalysesBoundedByRootsPlusMoves)
{
    expect_analyses_bounded(stream_case_sinks(HeuristicPolicy::farthest_corner, 200),
                            HeuristicPolicy::farthest_corner);
    for (const auto policy :
         {HeuristicPolicy::farthest_corner, HeuristicPolicy::min_suboptimality})
        expect_analyses_bounded(random_corner_nets(93, 1, kMcmGrid, 50).front().sinks,
                                policy);
}

// --------------------------------------------------------------- satellites

TEST(ForestIndex, DuplicateSinksCollapse)
{
    // Duplicate terminals must collapse to one node each (the ctor dedups
    // with a hash set rather than a quadratic scan).
    Forest f(Point{0, 0}, {{3, 4}, {3, 4}, {0, 0}, {5, 1}, {3, 4}, {5, 1}});
    EXPECT_EQ(f.node_count(), 3u);  // source + (3,4) + (5,1)
    EXPECT_EQ(f.roots().size(), 3u);
}

TEST(ForestIndex, PathResultRootBookkeeping)
{
    Forest f(Point{0, 0}, {{4, 4}, {2, 1}});
    const int r44 = f.root_at(Point{4, 4});
    ASSERT_GE(r44, 0);

    // Zero-length path: rejected, root unchanged.
    const auto res0 = f.apply_path(r44, {Point{4, 4}});
    EXPECT_FALSE(res0.merged);
    EXPECT_TRUE(res0.added_segs.empty());
    EXPECT_EQ(res0.new_root, r44);
    EXPECT_EQ(f.root_at(Point{4, 4}), r44);

    // Non-merge move: (4,4) -> (4,2); the new end node is the new root.
    const auto res1 = f.apply_path(r44, {Point{4, 2}});
    EXPECT_FALSE(res1.merged);
    EXPECT_EQ(res1.prev_root, r44);
    EXPECT_EQ(res1.prev_point, (Point{4, 4}));
    EXPECT_EQ(res1.end_point, (Point{4, 2}));
    EXPECT_EQ(res1.new_root, res1.end_node);
    EXPECT_EQ(f.root_at(Point{4, 4}), -1);
    EXPECT_EQ(f.root_at(Point{4, 2}), res1.new_root);
    ASSERT_EQ(res1.added_segs.size(), 1u);

    // Merge move: (2,1) -> (2,0) -> (0,0)... truncates nowhere, merges at the
    // source leg?  Route it into the source's tree via (0,1)->(0,0): simpler,
    // aim (2,1) at (2,0) then west to (0,0) -- contact with the origin point.
    const int r21 = f.root_at(Point{2, 1});
    ASSERT_GE(r21, 0);
    const auto res2 = f.apply_path(r21, {Point{0, 1}, Point{0, 0}});
    EXPECT_TRUE(res2.merged);
    EXPECT_EQ(res2.new_root, f.root_of_tree(f.node(res2.end_node).tree));
    EXPECT_EQ(f.root_at(Point{2, 1}), -1);
}

TEST(ForestIndex, CtorIndexesInitialRoots)
{
    // Initial single-point arborescences must be queryable through the index
    // immediately (degenerate zero-length segments).
    Forest f(Point{0, 0}, {{5, 5}, {3, 8}});
    EXPECT_TRUE(f.covers(Point{5, 5}));
    EXPECT_TRUE(f.covers(Point{0, 0}));
    EXPECT_FALSE(f.covers(Point{4, 5}));
    std::mt19937_64 rng(1);
    cross_check(f, rng, 10);
}

}  // namespace
}  // namespace cong93
