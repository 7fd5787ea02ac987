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

bool SegIndex::overlaps(const Lines& lines, std::size_t begin, std::size_t end,
                        Coord lo, Coord hi)
{
    // An interval e meets [lo, hi] iff e.lo <= hi and e.hi >= lo; among the
    // prefix with e.lo <= hi the running max of the high endpoints decides.
    const auto it = std::partition_point(
        lines.begin() + static_cast<std::ptrdiff_t>(begin),
        lines.begin() + static_cast<std::ptrdiff_t>(end),
        [hi](const Entry& e) { return e.lo <= hi; });
    const std::size_t n = static_cast<std::size_t>(it - lines.begin());
    return n > begin && lines[n - 1].max_hi >= lo;
}

bool SegIndex::overlaps(const Lines& lines, Coord at, Coord lo, Coord hi)
{
    const std::size_t end = first_after(lines, at, 0, lines.size());
    return overlaps(lines, first_at(lines, at, 0, end), end, lo, hi);
}

void SegIndex::add(const Seg& s, int owner)
{
    if (s.vertical())  // degenerate points file as zero-length columns
        insert(cols_, s.lo().x, s.lo().y, s.hi().y, owner);
    else
        insert(rows_, s.lo().y, s.lo().x, s.hi().x, owner);
}

bool SegIndex::hits_vertical_gate(Coord x, Coord y_lo, Coord y_hi) const
{
    if (y_lo >= y_hi) return false;
    if (overlaps(cols_, x, y_lo, y_hi - 1)) return true;
    for (std::size_t begin = first_at(rows_, y_lo, 0, rows_.size());
         begin < rows_.size() && rows_[begin].line < y_hi;) {
        const std::size_t end =
            first_after(rows_, rows_[begin].line, begin, rows_.size());
        if (overlaps(rows_, begin, end, x, x)) return true;
        begin = end;
    }
    return false;
}

bool SegIndex::hits_horizontal_gate(Coord y, Coord x_lo, Coord x_hi) const
{
    if (x_lo >= x_hi) return false;
    if (overlaps(rows_, y, x_lo, x_hi - 1)) return true;
    for (std::size_t begin = first_at(cols_, x_lo, 0, cols_.size());
         begin < cols_.size() && cols_[begin].line < x_hi;) {
        const std::size_t end =
            first_after(cols_, cols_[begin].line, begin, cols_.size());
        if (overlaps(cols_, begin, end, y, y)) return true;
        begin = end;
    }
    return false;
}

bool SegIndex::covers(Point p) const
{
    return overlaps(cols_, p.x, p.y, p.y) || overlaps(rows_, p.y, p.x, p.x);
}

}  // namespace cong93
