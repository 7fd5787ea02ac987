// Spatial index over the forest's segment geometry (the query-acceleration
// layer behind Forest::analyze and friends).
//
// Geometry is decomposed into per-line intervals: every vertical segment (and
// every degenerate point) becomes a y-interval filed under its column, every
// horizontal segment an x-interval filed under its row.  Each family is one
// flat vector of entries sorted by (line, low endpoint) -- a line is a
// contiguous run -- and every entry carries the running maximum of the high
// endpoints over its line so far, so "does anything on this line touch
// [a, b]?" is one binary search.  Region queries (nearest dominated point,
// first contact along a leg) walk lines outward from the query point and
// stop as soon as the axis distance alone exceeds the best candidate, so
// they touch only the geometry near the answer instead of every segment in
// the forest.  Queries that cross a span of lines (the blocking gates, the
// perpendicular half of first contact) walk the span's entries once and
// test each one; lines hold one to three entries, so a per-line search
// would cost more than it skips.  Nets of up to a few hundred sinks put
// tens to hundreds of entries in a family, where shifting the tail of one
// flat vector on insert costs less than the per-line heap nodes a tree map
// would allocate.
//
// The index is append-only: edge *splits* never change the union of forest
// points and tree *relabels* are resolved through the `owner` node id carried
// by every interval (the caller maps owner -> current tree id), so neither
// operation touches the index.  Degenerate entries for nodes that later gain
// edges stay behind harmlessly: their points remain part of the owning
// arborescence's geometry.
#ifndef CONG93_ATREE_SEG_INDEX_H
#define CONG93_ATREE_SEG_INDEX_H

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/segment.h"

namespace cong93 {

/// Folds candidate point c at L1 distance d into a running nearest-dominated
/// answer: a strictly closer c replaces it, an equally close one updates the
/// westmost (min x, then min y) and southmost (min y, then min x) minimizers.
/// The one tie-break of Definition 7's mf shared by every df computation.
inline void fold_dominated(Point c, Length d, Length& best,
                           std::optional<Point>& west, std::optional<Point>& south)
{
    if (d < best) {
        best = d;
        west = south = c;
    } else if (d == best && west) {
        if (c.x < west->x || (c.x == west->x && c.y < west->y)) west = c;
        if (c.y < south->y || (c.y == south->y && c.x < south->x)) south = c;
    }
}

class SegIndex {
public:
    /// Pre-sizes both line families for about `segs` segments.
    void reserve(std::size_t segs)
    {
        cols_.reserve(segs);
        rows_.reserve(segs);
    }

    /// Empties the index, keeping its storage for the next forest.
    void clear()
    {
        cols_.clear();
        rows_.clear();
    }

    /// Heap bytes held by both line families (capacities).
    std::size_t capacity_bytes() const
    {
        return (cols_.capacity() + rows_.capacity()) * sizeof(Entry);
    }

    /// Appends a segment (owner = the forest node id whose parent edge, or
    /// whose isolated point, this is; used for tree-id lookups by the caller).
    void add(const Seg& s, int owner);

    /// True when some indexed point r has r.x == x and y_lo <= r.y < y_hi
    /// (Definition 5 blocking test; half-open like Seg::hits_vertical_gate).
    bool hits_vertical_gate(Coord x, Coord y_lo, Coord y_hi) const;

    /// True when some indexed point r has r.y == y and x_lo <= r.x < x_hi.
    bool hits_horizontal_gate(Coord y, Coord x_lo, Coord x_hi) const;

    /// True when p lies on any indexed segment.
    bool covers(Point p) const;

    /// Nearest-dominated-point sweep (Definition 7 support): over every
    /// indexed interval whose owner passes `keep`, minimizes the L1 distance
    /// from p to the interval's point set restricted to points dominated by
    /// p.  On return `best` is the minimum distance (unchanged when nothing
    /// qualifies closer than its initial value), `west`/`south` the westmost
    /// (min x, then min y) and southmost (min y, then min x) minimizers --
    /// the same tie-break Forest::analyze_reference applies.  Pass
    /// best = kInfLen and empty optionals for a fresh query.
    template <typename Keep>
    void nearest_dominated(Point p, Keep&& keep, Length& best,
                           std::optional<Point>& west,
                           std::optional<Point>& south) const
    {
        // Columns at x <= p.x, nearest first.  Once the column offset alone
        // exceeds the best distance no farther column can matter (not even
        // for ties: a pruned candidate is strictly worse than the final best,
        // because `best` only shrinks after the pruning decision).
        for (std::size_t end = first_after(cols_, p.x, 0, cols_.size()); end > 0;) {
            const Coord x = cols_[end - 1].line;
            const Length ddx = static_cast<Length>(p.x) - x;
            if (ddx > best) break;
            const std::size_t begin = first_at(cols_, x, 0, end);
            for (std::size_t i = begin; i < end; ++i) {
                const Entry& e = cols_[i];
                if (e.lo > p.y) break;  // sorted by lo: the rest start higher
                if (!keep(e.owner)) continue;
                const Coord y = std::min(e.hi, p.y);
                fold_dominated(Point{x, y}, ddx + (static_cast<Length>(p.y) - y), best,
                               west, south);
            }
            end = begin;
        }
        // Rows at y <= p.y, nearest first.
        for (std::size_t end = first_after(rows_, p.y, 0, rows_.size()); end > 0;) {
            const Coord y = rows_[end - 1].line;
            const Length ddy = static_cast<Length>(p.y) - y;
            if (ddy > best) break;
            const std::size_t begin = first_at(rows_, y, 0, end);
            for (std::size_t i = begin; i < end; ++i) {
                const Entry& e = rows_[i];
                if (e.lo > p.x) break;
                if (!keep(e.owner)) continue;
                const Coord x = std::min(e.hi, p.x);
                fold_dominated(Point{x, y}, ddy + (static_cast<Length>(p.x) - x), best,
                               west, south);
            }
            end = begin;
        }
    }

    /// First contact of the leg with any interval whose owner passes `keep`:
    /// the smallest t in [1, leg.len] with leg.at(t) on indexed geometry,
    /// returned with the owner of one interval containing leg.at(t).  Lines
    /// are walked in travel order and abandoned once farther than the best
    /// t.
    template <typename Keep>
    std::optional<std::pair<Length, int>> first_contact(const Leg& leg,
                                                        Keep&& keep) const
    {
        if (leg.len <= 0) return std::nullopt;
        std::optional<std::pair<Length, int>> best;
        const auto scan_parallel = [&](const Lines& lines, Coord fixed,
                                       Coord pos0, int dir) {
            const std::size_t end = first_after(lines, fixed, 0, lines.size());
            for (std::size_t i = first_at(lines, fixed, 0, end); i < end; ++i) {
                const Entry& e = lines[i];
                if (!keep(e.owner)) continue;
                const auto t = leg_first_entry(pos0, dir, leg.len, e.lo, e.hi);
                if (t && (!best || *t < best->first)) best = {{*t, e.owner}};
            }
        };
        const auto scan_cross = [&](const Lines& lines, Coord cross, Coord pos0,
                                    int dir) {
            // Entries of the lines perpendicular to the leg, nearest line
            // first; the line at the leg origin only yields t = 0, which
            // first contact excludes.  The walk ends at the first line out
            // of reach: past the leg's end, or no nearer than the best t
            // (which also ends it right after a hit on this walk).
            const auto try_entry = [&](const Entry& e) {
                const Length t = dir > 0 ? static_cast<Length>(e.line) - pos0
                                         : static_cast<Length>(pos0) - e.line;
                if (t > leg.len || (best && t >= best->first)) return false;
                if (e.lo <= cross && cross <= e.hi && keep(e.owner))
                    best = {{t, e.owner}};
                return true;
            };
            if (dir > 0) {
                for (std::size_t i = first_after(lines, pos0, 0, lines.size());
                     i < lines.size() && try_entry(lines[i]); ++i) {
                }
            } else {
                for (std::size_t i = first_at(lines, pos0, 0, lines.size());
                     i > 0 && try_entry(lines[i - 1]); --i) {
                }
            }
        };
        if (leg.dx != 0) {
            scan_parallel(rows_, leg.from.y, leg.from.x, leg.dx);
            scan_cross(cols_, leg.from.y, leg.from.x, leg.dx);
        } else {
            scan_parallel(cols_, leg.from.x, leg.from.y, leg.dy);
            scan_cross(rows_, leg.from.x, leg.from.y, leg.dy);
        }
        return best;
    }

private:
    /// Interval [lo, hi] on grid line `line`, owned by forest node `owner`.
    struct Entry {
        Coord line;
        Coord lo;
        Coord hi;
        Coord max_hi;  ///< max of hi over this line's entries up to this one
        int owner;
    };
    /// One line family, sorted by (line, lo); equal keys keep insertion
    /// order.
    using Lines = std::vector<Entry>;

    /// First index in [from, to) whose line is >= at (resp. > at).
    static std::size_t first_at(const Lines& lines, Coord at, std::size_t from,
                                std::size_t to)
    {
        return static_cast<std::size_t>(
            std::partition_point(lines.begin() + static_cast<std::ptrdiff_t>(from),
                                 lines.begin() + static_cast<std::ptrdiff_t>(to),
                                 [at](const Entry& e) { return e.line < at; }) -
            lines.begin());
    }
    static std::size_t first_after(const Lines& lines, Coord at, std::size_t from,
                                   std::size_t to)
    {
        return static_cast<std::size_t>(
            std::partition_point(lines.begin() + static_cast<std::ptrdiff_t>(from),
                                 lines.begin() + static_cast<std::ptrdiff_t>(to),
                                 [at](const Entry& e) { return e.line <= at; }) -
            lines.begin());
    }

    static void insert(Lines& lines, Coord line, Coord lo, Coord hi, int owner);
    /// Does any entry of line `at` meet the closed range [lo, hi]?
    static bool overlaps(const Lines& lines, Coord at, Coord lo, Coord hi);
    /// Does any entry on a line in [from, to) contain c?  One walk over the
    /// span's entries.
    static bool crosses(const Lines& lines, Coord from, Coord to, Coord c);

    Lines cols_;  ///< x -> y-intervals (vertical + degenerate)
    Lines rows_;  ///< y -> x-intervals (horizontal)
};

}  // namespace cong93

#endif  // CONG93_ATREE_SEG_INDEX_H
