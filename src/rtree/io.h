// Human-readable dumps of routing trees: Graphviz DOT, ASCII grid art for
// small examples, and a one-line summary.
#ifndef CONG93_RTREE_IO_H
#define CONG93_RTREE_IO_H

#include <string>

#include "rtree/routing_tree.h"

namespace cong93 {

/// Graphviz representation (nodes labelled with coordinates; sinks doubled).
std::string to_dot(const RoutingTree& tree);

/// ASCII rendering on the bounding grid; only sensible for small examples
/// (the output is clipped to `max_dim` in each direction).
/// 'S' source, 'x' sink, '+' branch/turn, '-'/'|' wire.
std::string to_ascii(const RoutingTree& tree, int max_dim = 64);

/// One-line summary: terminal/node/segment counts and the three MDRT costs.
std::string describe(const RoutingTree& tree);

/// Plain-text net format:
///   net
///   source <x> <y>
///   sink <x> <y> [cap_farad]
///   ...
///   end
/// Lines starting with '#' are comments.  Numbers follow the netlist's rules
/// (geom/text_number.h): coordinates in int32 range, finite caps, and caps
/// written in shortest round-trip form, so parse(format(x)) == x bit for
/// bit.  parse_net throws std::invalid_argument on malformed input.
std::string format_net(const Net& net);
Net parse_net(const std::string& text);
/// Several nets concatenated.
std::string format_nets(const std::vector<Net>& nets);
std::vector<Net> parse_nets(const std::string& text);

/// Plain-text tree format (one node per line):
///   tree
///   node <id> <x> <y> <parent|-1> <sink:0|1> [cap_farad]
///   ...
///   end
/// Ids must be 0..n-1 with parents preceding children; node 0 is the source.
/// The sink flag is 0 or 1; numbers follow the net format's rules.
std::string format_tree(const RoutingTree& tree);
RoutingTree parse_tree(const std::string& text);

}  // namespace cong93

#endif  // CONG93_RTREE_IO_H
