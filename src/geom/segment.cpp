#include "geom/segment.h"

#include <algorithm>
#include <ostream>

namespace cong93 {

Seg::Seg(Point a, Point b)
{
    if (a.x != b.x && a.y != b.y)
        throw std::invalid_argument("Seg endpoints must be axis-aligned");
    if (b < a) std::swap(a, b);
    lo_ = a;
    hi_ = b;
}

bool Seg::contains(Point p) const
{
    if (horizontal() && p.y == lo_.y) return lo_.x <= p.x && p.x <= hi_.x;
    if (vertical() && p.x == lo_.x) return lo_.y <= p.y && p.y <= hi_.y;
    return false;
}

bool Seg::intersects(const Seg& other) const
{
    const auto overlap = [](Coord a1, Coord a2, Coord b1, Coord b2) {
        return std::max(a1, b1) <= std::min(a2, b2);
    };
    if (horizontal() && other.horizontal())
        return lo_.y == other.lo_.y && overlap(lo_.x, hi_.x, other.lo_.x, other.hi_.x);
    if (vertical() && other.vertical())
        return lo_.x == other.lo_.x && overlap(lo_.y, hi_.y, other.lo_.y, other.hi_.y);
    const Seg& h = horizontal() ? *this : other;
    const Seg& v = horizontal() ? other : *this;
    return v.lo_.x >= h.lo_.x && v.lo_.x <= h.hi_.x && h.lo_.y >= v.lo_.y &&
           h.lo_.y <= v.hi_.y;
}

std::ostream& operator<<(std::ostream& os, const Seg& s)
{
    return os << '[' << s.lo() << '-' << s.hi() << ']';
}

Leg make_leg(Point a, Point b)
{
    Leg leg;
    leg.from = a;
    if (a.x == b.x) {
        leg.dy = b.y >= a.y ? 1 : -1;
        leg.len = dist_y(a, b);
    } else if (a.y == b.y) {
        leg.dx = b.x > a.x ? 1 : -1;
        leg.len = dist_x(a, b);
    } else {
        throw std::invalid_argument("make_leg endpoints must be axis-aligned");
    }
    return leg;
}

std::optional<Length> leg_first_entry(Coord pos0, int dir, Length len, Coord lo, Coord hi)
{
    // Position at step t is pos0 + dir*t; find the smallest such t landing in
    // the closed interval [lo, hi].
    Length t_enter;
    Length t_exit;
    if (dir > 0) {
        t_enter = static_cast<Length>(lo) - pos0;
        t_exit = static_cast<Length>(hi) - pos0;
    } else {
        t_enter = static_cast<Length>(pos0) - hi;
        t_exit = static_cast<Length>(pos0) - lo;
    }
    const Length t = std::max<Length>(t_enter, 1);
    if (t > len || t > t_exit) return std::nullopt;
    return t;
}

std::optional<Length> first_hit(const Leg& leg, const Seg& s)
{
    if (leg.len <= 0) return std::nullopt;
    if (leg.dx != 0) {
        // Leg moves along row y = leg.from.y.
        const Coord y = leg.from.y;
        if (s.horizontal()) {
            if (s.lo().y != y) return std::nullopt;
            return leg_first_entry(leg.from.x, leg.dx, leg.len, s.lo().x, s.hi().x);
        }
        if (y < s.lo().y || y > s.hi().y) return std::nullopt;
        return leg_first_entry(leg.from.x, leg.dx, leg.len, s.lo().x, s.lo().x);
    }
    // Leg moves along column x = leg.from.x.
    const Coord x = leg.from.x;
    if (s.vertical()) {
        if (s.lo().x != x) return std::nullopt;
        return leg_first_entry(leg.from.y, leg.dy, leg.len, s.lo().y, s.hi().y);
    }
    if (x < s.lo().x || x > s.hi().x) return std::nullopt;
    return leg_first_entry(leg.from.y, leg.dy, leg.len, s.lo().y, s.lo().y);
}

}  // namespace cong93
