#include "atree/moves.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace cong93 {

const char* to_string(MoveType t)
{
    switch (t) {
    case MoveType::s1: return "S1";
    case MoveType::s2: return "S2";
    case MoveType::s3: return "S3";
    case MoveType::h1: return "H1";
    case MoveType::h2: return "H2";
    }
    return "?";
}

Length sigma_qmst(Point p, Length d)
{
    // Σ_{i=0..d-1} (p.x + p.y - i) = d*(x+y) - d(d-1)/2  (Lemma 3).
    if (d <= 0) return 0;
    return d * (static_cast<Length>(p.x) + p.y) - d * (d - 1) / 2;
}

namespace {

/// The safe-move scan order: farthest root from the origin first, ties by
/// descending point order.  Root points are pairwise distinct, so this is a
/// strict total order and any sorted sequence of roots is unique.
bool farther_first(const Forest& f, int a, int b)
{
    const Point pa = f.node(a).p;
    const Point pb = f.node(b).p;
    if (dist_origin(pa) != dist_origin(pb))
        return dist_origin(pa) > dist_origin(pb);
    return pb < pa;
}

}  // namespace

void MoveEngine::reset(Forest& forest, HeuristicPolicy policy, bool use_safe_moves,
                       Mode mode)
{
    forest_ = &forest;
    policy_ = policy;
    use_safe_moves_ = use_safe_moves;
    mode_ = mode;
    cache_.clear();
    order_.clear();
    order_ready_ = false;
    log_.clear();
    cands_.clear();
    safe_moves_ = heuristic_moves_ = 0;
    sb_total_ = sb_qmst_total_ = 0;
    full_analyses_ = mxmy_rederivations_ = 0;
    // Sized for the common case: small forests finish within about two
    // moves per root, adding a few nodes per terminal.
    log_.reserve(2 * forest.roots().size());
    if (mode_ == Mode::indexed) cache_.reserve(4 * forest.node_count());
}

std::size_t MoveEngine::capacity_bytes() const
{
    return cache_.capacity() * sizeof(Cached) + order_.capacity() * sizeof(int) +
           (mxmy_scratch_.nw.capacity() + mxmy_scratch_.se.capacity()) * sizeof(Point) +
           log_.capacity() * sizeof(MoveRecord) + cands_.capacity() * sizeof(Cand);
}

void MoveEngine::record(MoveRecord rec)
{
    if (rec.type == MoveType::h1 || rec.type == MoveType::h2) {
        ++heuristic_moves_;
        sb_total_ += rec.sb;
        sb_qmst_total_ += rec.sb_qmst;
    } else {
        ++safe_moves_;
    }
    log_.push_back(rec);
}

#ifndef CONG93_HAVE_ORACLES
namespace {

[[noreturn]] void require_oracles()
{
    throw std::logic_error(
        "MoveEngine: Mode::reference requires CONG93_BUILD_ORACLES=ON");
}

}  // namespace
#endif

Forest::RootQuery MoveEngine::query(int root_id)
{
    if (mode_ == Mode::reference) {
#ifdef CONG93_HAVE_ORACLES
        ++full_analyses_;
        return forest_->analyze_reference(root_id);
#else
        require_oracles();
#endif
    }
    const auto id = static_cast<std::size_t>(root_id);
    if (id >= cache_.size()) cache_.resize(std::max(forest_->node_count(), id + 1));
    Cached& c = cache_[id];
    if (!c.valid) {
        c.q = forest_->analyze(root_id, mxmy_scratch_);
        c.valid = true;
        c.mxmy_stale = false;
        ++full_analyses_;
    } else if (c.mxmy_stale) {
        forest_->analyze_mxmy(root_id, c.q, mxmy_scratch_);
        c.mxmy_stale = false;
        ++mxmy_rederivations_;
    }
    return c.q;
}

std::optional<Forest::RootQuery> MoveEngine::peek_query(int root_id) const
{
    const auto id = static_cast<std::size_t>(root_id);
    if (mode_ == Mode::reference || id >= cache_.size() || !cache_[id].valid)
        return std::nullopt;
    Forest::RootQuery q = cache_[id].q;
    if (cache_[id].mxmy_stale) {
        Forest::MxMyScratch scratch;
        forest_->analyze_mxmy(root_id, q, scratch);
    }
    return q;
}

const std::vector<int>& MoveEngine::scan_order()
{
    if (mode_ == Mode::reference || !order_ready_) {
        order_ = forest_->roots();
        std::sort(order_.begin(), order_.end(),
                  [&](int a, int b) { return farther_first(*forest_, a, b); });
        order_ready_ = true;
    }
    return order_;
}

void MoveEngine::note_path(const Forest::PathResult& pr)
{
    if (mode_ == Mode::reference) return;
    if (pr.added_segs.empty()) return;  // rejected zero-length path: no change

    const auto drop = [&](int rid) {
        if (static_cast<std::size_t>(rid) < cache_.size())
            cache_[static_cast<std::size_t>(rid)].valid = false;
    };
    // An unmerged move leaves the other trees as they were, and every point
    // of them dominated by the new root p' is dominated by the old root p,
    // at a distance shorter by d(p, p').  So when p's mf_west and mf_south
    // are both dominated by p', they are p''s too, and df shrinks by
    // d(p, p'): the new root inherits its df part and derives only mx/my.
    std::optional<Forest::RootQuery> inherited;
    if (!pr.merged && static_cast<std::size_t>(pr.prev_root) < cache_.size()) {
        const Cached& old = cache_[static_cast<std::size_t>(pr.prev_root)];
        const Point np = pr.end_point;
        const auto under = [&](const std::optional<Point>& m) {
            return m && m->x <= np.x && m->y <= np.y;
        };
        if (old.valid && under(old.q.mf_west) && under(old.q.mf_south)) {
            inherited = old.q;
            inherited->df -= dist(pr.prev_point, np);
        }
    }
    drop(pr.prev_root);
    if (order_ready_) {
        const auto it = std::find(order_.begin(), order_.end(), pr.prev_root);
        if (it != order_.end()) order_.erase(it);
    }
    if (pr.merged) {
        // The surviving root's arborescence just absorbed another tree: its
        // df/mf now exclude the absorbed geometry, so re-derive from scratch.
        drop(pr.new_root);
    } else if (order_ready_) {
        order_.insert(
            std::lower_bound(order_.begin(), order_.end(), pr.new_root,
                             [&](int a, int b) { return farther_first(*forest_, a, b); }),
            pr.new_root);
    }

    // Bring every other cached query up to date.  Geometry only grows, the
    // new segments belong to a tree other than any remaining cached root's,
    // and tree relabels leave every such root's candidate sets intact, so:
    //   * df/mf fold in each new segment's nearest dominated point,
    //   * a new segment crossing the gate of a cached mx/my that stayed put
    //     leaves mx/my stale (re-derived on the next query): it is blocked,
    //   * an unmerged move's new root takes over mx (resp. my) when its key
    //     is below the cached one and its gate is open: every candidate
    //     with a smaller key was blocked and still is,
    //   * a cached mx/my that was the moved root and is not taken over so
    //     leaves mx/my stale.
    const Point rn = pr.end_point;  // the new root unless merged
    const std::vector<int>& ids = forest_->roots();
    const std::vector<Point>& pts = forest_->root_points();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto id = static_cast<std::size_t>(ids[i]);
        if (id >= cache_.size() || !cache_[id].valid) continue;
        Cached& c = cache_[id];
        Forest::RootQuery& q = c.q;
        const Point p = pts[i];
        const bool mx_moved = q.mx && *q.mx == pr.prev_point;
        const bool my_moved = q.my && *q.my == pr.prev_point;
        for (const Seg& s : pr.added_segs) {
            if (const auto cand = s.nearest_dominated(p))
                fold_dominated(*cand, dist(p, *cand), q.df, q.mf_west, q.mf_south);
            if (!c.mxmy_stale &&
                ((q.mx && !mx_moved && s.hits_vertical_gate(q.mx->x, p.y, q.mx->y)) ||
                 (q.my && !my_moved && s.hits_horizontal_gate(q.my->y, p.x, q.my->x))))
                c.mxmy_stale = true;
        }
        if (c.mxmy_stale) continue;
        bool took_mx = false, took_my = false;
        if (!pr.merged && rn.x < p.x && rn.y > p.y) {
            const Length d = dist_x(p, rn);
            if ((d < q.dx || (d == q.dx && rn.y < q.mx->y)) &&
                !forest_->nw_blocked(p, rn)) {
                q.dx = d;
                q.mx = rn;
                took_mx = true;
            }
        } else if (!pr.merged && rn.x > p.x && rn.y < p.y) {
            const Length d = dist_y(p, rn);
            if ((d < q.dy || (d == q.dy && rn.x < q.my->x)) &&
                !forest_->se_blocked(p, rn)) {
                q.dy = d;
                q.my = rn;
                took_my = true;
            }
        }
        if ((mx_moved && !took_mx) || (my_moved && !took_my)) c.mxmy_stale = true;
    }
    if (inherited) {
        const auto id = static_cast<std::size_t>(pr.new_root);
        if (id >= cache_.size()) cache_.resize(std::max(forest_->node_count(), id + 1));
        cache_[id] = {*inherited, true, true};
    }
}

bool MoveEngine::step()
{
    if (forest_->single_tree()) return false;
    if (!use_safe_moves_ || !try_safe_move()) heuristic_move();
    return true;
}

void MoveEngine::run()
{
    // Every applied move either merges two arborescences or moves one root
    // strictly closer to the origin, so the loop terminates; the guard is a
    // defensive backstop only.
    std::size_t guard = 0;
    const std::size_t limit = 64 * forest_->node_count() * forest_->node_count() + 4096;
    while (step()) {
        if (++guard > limit) {
            std::ostringstream os;
            os << "MoveEngine::run: no progress after " << guard
               << " moves (limit " << limit << ", forest has "
               << forest_->node_count() << " nodes, "
               << forest_->roots().size() << " roots, farthest root at "
               << forest_->node(scan_order().front()).p << ")";
            throw std::logic_error(os.str());
        }
    }
}

bool MoveEngine::try_safe_move()
{
    // Each branch below returns right after applying its path, so the
    // scan order is not read again once the path has changed it.
    for (const int rid : scan_order()) {
        const Point p = forest_->node(rid).p;
        const Forest::RootQuery q = query(rid);
        if (q.df >= kInfLen) continue;  // the origin; it never moves

        if (q.dx >= q.df && q.dy >= q.df) {
            // S1-move: connect p to mf_west (south leg first, then west).
            const Point target = *q.mf_west;
            const Point corner{p.x, target.y};
            const auto res = forest_->apply_path(rid, {corner, target});
            note_path(res);
            MoveRecord rec;
            rec.type = MoveType::s1;
            rec.from1 = p;
            rec.to = res.end_point;
            rec.added = dist(p, res.end_point);
            record(rec);
            return true;
        }
        if (q.dx >= q.df && q.dy < q.df) {
            // S2-move: vertical path of length min(dist_y(mf_south,p), dy).
            const Length len = std::min(dist_y(*q.mf_south, p), q.dy);
            if (len < 1) continue;  // degenerate; treat as no safe move from p
            const Point target{p.x, static_cast<Coord>(p.y - len)};
            const auto res = forest_->apply_path(rid, {target});
            note_path(res);
            MoveRecord rec;
            rec.type = MoveType::s2;
            rec.from1 = p;
            rec.to = res.end_point;
            rec.added = dist(p, res.end_point);
            record(rec);
            return true;
        }
        if (q.dx < q.df && q.dy >= q.df) {
            // S3-move: horizontal path of length min(dist_x(mf_west,p), dx).
            const Length len = std::min(dist_x(*q.mf_west, p), q.dx);
            if (len < 1) continue;
            const Point target{static_cast<Coord>(p.x - len), p.y};
            const auto res = forest_->apply_path(rid, {target});
            note_path(res);
            MoveRecord rec;
            rec.type = MoveType::s3;
            rec.from1 = p;
            rec.to = res.end_point;
            rec.added = dist(p, res.end_point);
            record(rec);
            return true;
        }
        // dx < df and dy < df: no safe move originates from p.
    }
    return false;
}

namespace {

Length lower_bound_of(const Forest::RootQuery& q)
{
    return std::min({q.dx, q.dy, q.df});
}

}  // namespace

void MoveEngine::heuristic_move()
{
    std::vector<Cand>& cands = cands_;
    cands.clear();
    const std::vector<int>& ids = forest_->roots();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Cand c;
        c.root = ids[i];
        c.p = forest_->root_points()[i];
        c.q = query(c.root);
        if (c.q.df >= kInfLen) continue;  // the origin cannot be moved
        cands.push_back(c);
    }
    if (cands.empty()) {
        std::ostringstream os;
        os << "heuristic_move: no candidates (forest has "
           << forest_->node_count() << " nodes, " << forest_->roots().size()
           << " roots, single_tree=" << (forest_->single_tree() ? "yes" : "no")
           << ")";
        throw std::logic_error(os.str());
    }

    // H1 candidate: the root whose mf_west is farthest from the origin
    // (farthest_corner policy) or with the smallest SB (min_suboptimality).
    int best_h1 = -1;
    Length best_h1_score = -1;
    Length best_h1_sb = kInfLen;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const Cand& c = cands[i];
        const Length score = dist_origin(*c.q.mf_west);
        const Length sb = std::max<Length>(0, c.q.df - lower_bound_of(c.q));
        if (policy_ == HeuristicPolicy::farthest_corner ? score > best_h1_score
                                                        : sb < best_h1_sb) {
            best_h1 = static_cast<int>(i);
            best_h1_score = score;
            best_h1_sb = sb;
        }
    }

    // H2 candidate: the pair whose meeting corner is farthest from the
    // origin (farthest_corner) or with the smallest estimated SB.
    int best_i = -1, best_j = -1;
    Length best_h2_score = -1;
    Length best_h2_sb = kInfLen;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        for (std::size_t j = i + 1; j < cands.size(); ++j) {
            const Point corner{std::min(cands[i].p.x, cands[j].p.x),
                               std::min(cands[i].p.y, cands[j].p.y)};
            const Length score = dist_origin(corner);
            Length sb = 0;
            if (policy_ == HeuristicPolicy::min_suboptimality) {
                const int t1 = forest_->node(cands[i].root).tree;
                const int t2 = forest_->node(cands[j].root).tree;
#ifdef CONG93_HAVE_ORACLES
                const Length df_est =
                    mode_ == Mode::reference
                        ? forest_->nearest_dominated_dist_reference(corner, t1, t2)
                        : forest_->nearest_dominated_dist(corner, t1, t2);
#else
                if (mode_ == Mode::reference) require_oracles();
                const Length df_est =
                    forest_->nearest_dominated_dist(corner, t1, t2);
#endif
                sb = std::max<Length>(
                    0, dist(corner, cands[i].p) + dist(corner, cands[j].p) +
                           (df_est >= kInfLen ? 0 : df_est) -
                           lower_bound_of(cands[i].q) - lower_bound_of(cands[j].q));
            }
            if (policy_ == HeuristicPolicy::farthest_corner ? score > best_h2_score
                                                            : sb < best_h2_sb) {
                best_i = static_cast<int>(i);
                best_j = static_cast<int>(j);
                best_h2_score = score;
                best_h2_sb = sb;
            }
        }
    }

    const bool use_h1 =
        best_i < 0 ||
        (policy_ == HeuristicPolicy::farthest_corner ? best_h1_score >= best_h2_score
                                                     : best_h1_sb <= best_h2_sb);

    if (use_h1) {
        const Cand& c = cands[static_cast<std::size_t>(best_h1)];
        const Point target = *c.q.mf_west;
        const Point corner{c.p.x, target.y};
        const auto res = forest_->apply_path(c.root, {corner, target});
        note_path(res);
        MoveRecord rec;
        rec.type = MoveType::h1;
        rec.from1 = c.p;
        rec.to = res.end_point;
        rec.added = dist(c.p, res.end_point);
        const Length lb = lower_bound_of(c.q);
        rec.sb = std::max<Length>(0, rec.added - lb);
        rec.sb_qmst =
            std::max<Length>(0, sigma_qmst(c.p, rec.added) - sigma_qmst(c.p, lb));
        record(rec);
        return;
    }

    // H2-move: join cands[best_i] and cands[best_j] at their corner.
    const Cand& c1 = cands[static_cast<std::size_t>(best_i)];
    const Cand& c2 = cands[static_cast<std::size_t>(best_j)];
    const Point corner{std::min(c1.p.x, c2.p.x), std::min(c1.p.y, c2.p.y)};

    MoveRecord rec;
    rec.type = MoveType::h2;
    rec.from1 = c1.p;
    rec.from2 = c2.p;
    rec.to = corner;

    const auto res1 = forest_->apply_path(c1.root, {corner});
    note_path(res1);
    const Length added1 = dist(c1.p, res1.end_point);
    Length added2 = 0;
    bool leg2_done = false;
    // Only continue with the second leg if the first reached the corner
    // cleanly (possibly as a no-op when corner == c1.p).
    if (res1.end_point == corner && !res1.merged) {
        const auto res2 = forest_->apply_path(c2.root, {corner});
        note_path(res2);
        added2 = dist(c2.p, res2.end_point);
        leg2_done = true;
    }
    rec.added = added1 + added2;

    // SB(pi) = d(p',p1) + d(p',p2) + df(p', F_{k+1}) - LB(p1) - LB(p2),
    // adapted to truncated/degenerate outcomes (see Section 3.4).  A root
    // sits exactly at the corner only when one ended up there -- an O(1)
    // point lookup rather than a scan over all roots.
    Length df_after = 0;
    const int corner_root = forest_->root_at(corner);
    if (corner_root >= 0) {
        const Forest::RootQuery q = query(corner_root);
        if (q.df < kInfLen) df_after = q.df;
    }
    Length sb = added1 + added2 + df_after - lower_bound_of(c1.q);
    Length sb_qmst = sigma_qmst(c1.p, added1) + sigma_qmst(c2.p, added2) +
                     sigma_qmst(corner, df_after) - sigma_qmst(c1.p, lower_bound_of(c1.q));
    if (leg2_done) {
        sb -= lower_bound_of(c2.q);
        sb_qmst -= sigma_qmst(c2.p, lower_bound_of(c2.q));
    }
    rec.sb = std::max<Length>(0, sb);
    rec.sb_qmst = std::max<Length>(0, sb_qmst);
    record(rec);
}

}  // namespace cong93
