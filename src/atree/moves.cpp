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
    // Sized for the common case: small forests finish within about two
    // moves per root, adding a few nodes per terminal.
    log_.reserve(2 * forest.roots().size());
    if (mode_ == Mode::indexed) cache_.reserve(4 * forest.node_count());
}

std::size_t MoveEngine::capacity_bytes() const
{
    return cache_.capacity() * sizeof(cache_[0]) + order_.capacity() * sizeof(int) +
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

namespace {

[[noreturn]] void require_oracles()
{
    throw std::logic_error(
        "MoveEngine: Mode::reference requires CONG93_BUILD_ORACLES=ON");
}

}  // namespace

Forest::RootQuery MoveEngine::query(int root_id)
{
    if (mode_ == Mode::reference) {
#ifdef CONG93_HAVE_ORACLES
        return forest_->analyze_reference(root_id);
#else
        require_oracles();
#endif
    }
    const auto id = static_cast<std::size_t>(root_id);
    if (id >= cache_.size()) cache_.resize(std::max(forest_->node_count(), id + 1));
    if (!cache_[id]) cache_[id] = forest_->analyze(root_id);
    return *cache_[id];
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
            cache_[static_cast<std::size_t>(rid)].reset();
    };
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

    // Dirty sweep: a cached query stays valid unless the move could have
    // touched it.  Geometry is append-only and tree relabels keep every
    // other root's candidate sets intact, so the only hazards are
    //   * a new segment with a dominated point within the cached df
    //     (closer mf, or an equal-distance tie that shifts mf_west/mf_south),
    //   * a new segment crossing the cached mx/my blocking gate,
    //   * the moved root having been the cached mx/my,
    //   * a new root appearing NW/SE within the cached dx/dy (ties included).
    for (const int rid : forest_->roots()) {  // only roots are ever cached
        const auto id = static_cast<std::size_t>(rid);
        if (id >= cache_.size() || !cache_[id]) continue;
        const Forest::RootQuery& q = *cache_[id];
        const Point p = forest_->node(rid).p;
        bool hit = false;
        for (const Seg& s : pr.added_segs) {
            const auto cand = s.nearest_dominated(p);
            if (cand && dist(p, *cand) <= q.df) {
                hit = true;
                break;
            }
            if (q.mx && s.hits_vertical_gate(q.mx->x, p.y, q.mx->y)) {
                hit = true;
                break;
            }
            if (q.my && s.hits_horizontal_gate(q.my->y, p.x, q.my->x)) {
                hit = true;
                break;
            }
        }
        if (!hit && q.mx && *q.mx == pr.prev_point) hit = true;
        if (!hit && q.my && *q.my == pr.prev_point) hit = true;
        if (!hit && !pr.merged) {
            const Point rn = forest_->node(pr.new_root).p;
            if (rn.x < p.x && rn.y > p.y && dist_x(p, rn) <= q.dx)
                hit = true;
            else if (rn.x > p.x && rn.y < p.y && dist_y(p, rn) <= q.dy)
                hit = true;
        }
        if (hit) cache_[id].reset();
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
    for (const int rid : forest_->roots()) {
        Cand c;
        c.root = rid;
        c.p = forest_->node(rid).p;
        c.q = query(rid);
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
