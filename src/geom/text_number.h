// Number rules shared by the plain-text formats: the `tree ... end` text of
// rtree/io.h and the netlist of workload/netlist.h.
// A token is read whole: integers must fit int32 (Coord's range, also used
// for tree indices), doubles must be finite, and doubles are written in
// shortest round-trip form, so parse(format(x)) == x bit for bit.
#ifndef CONG93_GEOM_TEXT_NUMBER_H
#define CONG93_GEOM_TEXT_NUMBER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cong93 {

/// Shortest round-trip decimal form of v (std::to_chars).
std::string fmt_double(double v);

/// Finite doubles only: std::from_chars also accepts "nan" and "inf".
bool parse_double(std::string_view tok, double& out);

/// A decimal integer in int32 range.
bool parse_int32(std::string_view tok, std::int32_t& out);

/// A non-negative decimal integer.
bool parse_count(std::string_view tok, std::size_t& out);

}  // namespace cong93

#endif  // CONG93_GEOM_TEXT_NUMBER_H
