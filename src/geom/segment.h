// Axis-parallel grid segments and the geometric queries the A-tree forest
// needs: nearest dominated point, blocking tests, and first-hit along a
// directed leg.  A segment is the closed set of grid points between its two
// endpoints; degenerate (single-point) segments are allowed so that isolated
// terminals can be stored uniformly.
#ifndef CONG93_GEOM_SEGMENT_H
#define CONG93_GEOM_SEGMENT_H

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "geom/point.h"

namespace cong93 {

/// Closed axis-parallel segment [a,b] on the grid.
class Seg {
public:
    /// Constructs the segment between a and b.  Throws std::invalid_argument
    /// if a and b are not axis-aligned.
    Seg(Point a, Point b);

    /// Single grid point.
    explicit Seg(Point p) : lo_(p), hi_(p) {}

    Point lo() const { return lo_; }  ///< lexicographically smaller endpoint
    Point hi() const { return hi_; }  ///< lexicographically larger endpoint

    bool degenerate() const { return lo_ == hi_; }
    bool horizontal() const { return lo_.y == hi_.y; }
    bool vertical() const { return lo_.x == hi_.x; }
    Length length() const { return dist(lo_, hi_); }

    /// True when p is one of the segment's grid points.
    bool contains(Point p) const;

    /// Nearest point of the segment's portion dominated by p (Definition 7
    /// support).  Returns nullopt when no segment point is dominated by p.
    /// Within one axis-parallel segment the L1-nearest dominated point is
    /// unique, so a single point is returned.  (This and the two gate tests
    /// are inline: the A-tree move engine runs them per root per move.)
    std::optional<Point> nearest_dominated(Point p) const
    {
        if (horizontal()) {
            if (lo_.y > p.y) return std::nullopt;
            const Coord x_hi = std::min(hi_.x, p.x);
            if (x_hi < lo_.x) return std::nullopt;
            // Distance (p.x - x) + (p.y - y0) is minimized by the largest x.
            return Point{x_hi, lo_.y};
        }
        if (lo_.x > p.x) return std::nullopt;
        const Coord y_hi = std::min(hi_.y, p.y);
        if (y_hi < lo_.y) return std::nullopt;
        return Point{lo_.x, y_hi};
    }

    /// True when the segment contains a point r with r.x == x and
    /// y_lo <= r.y < y_hi (half-open, Definition 5 blocking test).
    bool hits_vertical_gate(Coord x, Coord y_lo, Coord y_hi) const
    {
        if (y_lo >= y_hi) return false;
        if (vertical()) {
            // Column must match; closed y-range [lo.y, hi.y] vs half-open gate.
            return lo_.x == x && lo_.y < y_hi && hi_.y >= y_lo;
        }
        // Horizontal: single row lo_.y, columns [lo_.x, hi_.x].
        return lo_.y >= y_lo && lo_.y < y_hi && lo_.x <= x && x <= hi_.x;
    }

    /// True when the segment contains a point r with r.y == y and
    /// x_lo <= r.x < x_hi.
    bool hits_horizontal_gate(Coord y, Coord x_lo, Coord x_hi) const
    {
        if (x_lo >= x_hi) return false;
        if (horizontal()) return lo_.y == y && lo_.x < x_hi && hi_.x >= x_lo;
        return lo_.x >= x_lo && lo_.x < x_hi && lo_.y <= y && y <= hi_.y;
    }

    /// Does this segment intersect the closed axis-parallel segment [a,b]?
    bool intersects(const Seg& other) const;

    friend bool operator==(const Seg& a, const Seg& b)
    {
        return a.lo_ == b.lo_ && a.hi_ == b.hi_;
    }

private:
    Point lo_;
    Point hi_;
};

std::ostream& operator<<(std::ostream& os, const Seg& s);

/// A directed axis-parallel leg starting at `from`, moving one of the four
/// axis directions for `len` grid units.
struct Leg {
    Point from;
    Coord dx = 0;  ///< -1, 0 or +1
    Coord dy = 0;  ///< -1, 0 or +1; exactly one of dx,dy is nonzero
    Length len = 0;

    Point to() const
    {
        return Point{static_cast<Coord>(from.x + dx * len),
                     static_cast<Coord>(from.y + dy * len)};
    }
    Point at(Length t) const
    {
        return Point{static_cast<Coord>(from.x + dx * t),
                     static_cast<Coord>(from.y + dy * t)};
    }
};

/// Makes the axis-parallel leg from a to b (throws if not axis-aligned).
Leg make_leg(Point a, Point b);

/// Smallest t in (0, len] such that leg.at(t) lies on s, or nullopt.
/// t = 0 (the leg origin itself) is deliberately excluded: a new path always
/// starts on its own arborescence.
std::optional<Length> first_hit(const Leg& leg, const Seg& s);

/// 1-D core of first_hit: smallest t in [1, len] with pos0 + dir*t inside the
/// closed interval [lo, hi], or nullopt.  Shared with the spatial segment
/// index (atree/seg_index.h), which decomposes segments into per-line
/// intervals and needs the same leg-entry arithmetic.
std::optional<Length> leg_first_entry(Coord pos0, int dir, Length len, Coord lo,
                                      Coord hi);

}  // namespace cong93

#endif  // CONG93_GEOM_SEGMENT_H
