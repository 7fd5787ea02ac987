// Bookshelf/ISPD-lite pin-list netlist format: the on-disk design format
// behind `cong93 gen --out`, `cong93 chip --in`, and the bundled example
// designs.
//
// Grammar (whitespace-separated tokens, '#' starts a comment to EOL):
//
//   # cong93 netlist v1
//   design <name> <net-count>
//   net <name> <degree> [crit <weight>] [rat <seconds>]
//   source <x> <y>
//   sink <x> <y> [cap <farad>] [rat <seconds>]
//   ...
//   end
//
// <degree> is the pin count (1 source + #sinks), the bookshelf convention;
// a mismatch with the listed pins is a per-net parse error.  crit, rat and
// cap must be finite and crit non-negative; a negative rat or cap is the
// "unconstrained" / "technology default" marker.  Doubles are
// written in shortest round-trip form (std::to_chars), so
// parse(format(items)) == items bit-for-bit and format(parse(text)) is
// byte-identical for writer-produced text.
//
// Error policy -- two tiers, so a malformed design never throws out of the
// streaming router:
//   * header errors (missing magic, bad design line) throw
//     std::invalid_argument from the NetlistReader constructor: the caller
//     has no stream yet, nothing is in flight;
//   * per-net structural errors (truncated block, duplicate name, bad
//     token, pin-count mismatch) yield a WorkItem whose meta.parse_error
//     carries the diagnostic and whose geometry is cleared -- route_stream
//     turns these into RouteStatus::invalid_input results in-place, keeping
//     indices stable and exceptions out of the hot loop.  Coordinates
//     beyond +-kMaxRoutableCoord are NOT parse errors: they parse fine and
//     are rejected downstream by validate_net (and excluded from cache
//     interning by the PR-8 never-intern rule).
#ifndef CONG93_WORKLOAD_NETLIST_H
#define CONG93_WORKLOAD_NETLIST_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <unordered_set>
#include <vector>

#include "workload/net_source.h"

namespace cong93 {

/// Serializes items in canonical netlist form (header comment, design
/// line, one block per item).  Defaulted metadata fields are omitted:
/// crit at 1.0, negative RATs, negative/absent sink caps.  Unnamed items
/// are written as "n<index>".  Items with a parse_error are skipped (they
/// have no geometry to write).
std::string format_netlist(const std::vector<WorkItem>& items,
                           const std::string& design_name = "design");

/// Streaming reader: pulls net blocks straight off an istream, so a 100k+
/// net design is never resident as text or items at once.  The stream must
/// outlive the reader.
class NetlistReader : public NetSource {
public:
    /// Parses the header eagerly; throws std::invalid_argument when the
    /// magic line or design line is missing/malformed.
    explicit NetlistReader(std::istream& in);

    std::size_t pull(std::vector<WorkItem>& out, std::size_t max_items) override;
    std::size_t size_hint() const override { return declared_count_; }

    const std::string& design_name() const { return design_name_; }
    std::size_t declared_count() const { return declared_count_; }

private:
    bool next_line(std::vector<std::string>& tokens);
    bool read_item(WorkItem& item);

    std::istream* in_;
    std::string design_name_;
    std::size_t declared_count_ = 0;
    std::size_t yielded_ = 0;
    std::size_t line_no_ = 0;
    bool done_ = false;
    /// One pushed-back token line (a stray `net` line seen while recovering
    /// from a malformed block becomes the next block's first line).
    std::vector<std::string> pending_;
    bool has_pending_ = false;
    std::unordered_set<std::string> seen_names_;
};

/// Result of parsing a whole design held in memory (convenience front-end
/// over NetlistReader for tests and small inputs).
struct NetlistDesign {
    std::string name;
    std::vector<WorkItem> items;
};

/// Parses `text` completely.  Header errors throw std::invalid_argument;
/// per-net errors surface as parse_error items, exactly as the streaming
/// reader yields them.
NetlistDesign parse_netlist(const std::string& text);

}  // namespace cong93

#endif  // CONG93_WORKLOAD_NETLIST_H
