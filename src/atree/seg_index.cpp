#include "atree/seg_index.h"

namespace cong93 {

void SegIndex::insert(Lines& lines, Coord line, Coord lo, Coord hi, int owner)
{
    // After every entry of a lower line and every entry of this line with
    // lo' <= lo, so equal keys keep insertion order.
    const auto it = std::partition_point(
        lines.begin(), lines.end(), [&](const Entry& e) {
            return e.line < line || (e.line == line && e.lo <= lo);
        });
    std::size_t i = static_cast<std::size_t>(it - lines.begin());
    lines.insert(it, Entry{line, lo, hi, hi, owner});
    // Refresh the running maximum from the new entry to the end of its line.
    for (; i < lines.size() && lines[i].line == line; ++i)
        lines[i].max_hi = i > 0 && lines[i - 1].line == line
                              ? std::max(lines[i - 1].max_hi, lines[i].hi)
                              : lines[i].hi;
}

bool SegIndex::overlaps(const Lines& lines, Coord at, Coord lo, Coord hi)
{
    // An interval e meets [lo, hi] iff e.lo <= hi and e.hi >= lo; among the
    // prefix of line `at` with e.lo <= hi the running max of the high
    // endpoints decides.
    const std::size_t begin = first_at(lines, at, 0, lines.size());
    const auto it = std::partition_point(
        lines.begin() + static_cast<std::ptrdiff_t>(begin), lines.end(),
        [at, hi](const Entry& e) { return e.line == at && e.lo <= hi; });
    const std::size_t n = static_cast<std::size_t>(it - lines.begin());
    return n > begin && lines[n - 1].max_hi >= lo;
}

void SegIndex::add(const Seg& s, int owner)
{
    if (s.vertical())  // degenerate points file as zero-length columns
        insert(cols_, s.lo().x, s.lo().y, s.hi().y, owner);
    else
        insert(rows_, s.lo().y, s.lo().x, s.hi().x, owner);
}

bool SegIndex::crosses(const Lines& lines, Coord from, Coord to, Coord c)
{
    for (std::size_t i = first_at(lines, from, 0, lines.size());
         i < lines.size() && lines[i].line < to; ++i)
        if (lines[i].lo <= c && c <= lines[i].hi) return true;
    return false;
}

bool SegIndex::hits_vertical_gate(Coord x, Coord y_lo, Coord y_hi) const
{
    if (y_lo >= y_hi) return false;
    return overlaps(cols_, x, y_lo, y_hi - 1) || crosses(rows_, y_lo, y_hi, x);
}

bool SegIndex::hits_horizontal_gate(Coord y, Coord x_lo, Coord x_hi) const
{
    if (x_lo >= x_hi) return false;
    return overlaps(rows_, y, x_lo, x_hi - 1) || crosses(cols_, x_lo, x_hi, y);
}

bool SegIndex::covers(Point p) const
{
    return overlaps(cols_, p.x, p.y, p.y) || overlaps(rows_, p.y, p.x, p.x);
}

}  // namespace cong93
