// Command-line driver for the library: generate nets, route them, run the
// full route+wiresize+simulate flow, or simulate serialized trees.
//
//   cong93 gen      --random 10 --sinks 8 [--grid 4000] [--seed 1]
//                   [--out design.nets]: also write the cong93 netlist
//                   format (workload/netlist.h), which `chip`/`batch
//                   --in` read back bit-identically
//   cong93 chip     chip-level workload: stream a whole design (netlist
//                   --in file, or --random N generated nets) through
//                   route_stream in bounded-memory chunks and roll up
//                   chip-level timing (worst slacks against the netlist's
//                   required-arrival metadata, measured vs bounding-box
//                   delay ratios): [--chunk-nets C] [--top K] plus the
//                   batch pipeline knobs -- output is byte-identical at
//                   any thread count ('#' telemetry lines excluded)
//   cong93 route    (--in nets.txt | --random N --sinks K) [--algo atree]
//                   [--tech mcm] [--driver-scale X] [--out trees.txt]
//   cong93 flow     like route, plus --widths R and --sizer combined
//   cong93 simulate --in trees.txt [--method two_pole] [--threshold 0.5]
//                   [--rlc] [--tech mcm]
//   cong93 batch    like route, through the fault-isolated route_batch
//                   pipeline: [--threads T] [--max-nodes N]
//                   [--fault-inject SPEC] [--deadline-ms T] [--queue-cap N]
//                   -- prints the canonical per-net result lines (status +
//                   diagnostics) and an outcome summary, both byte-identical
//                   at any thread count
//   cong93 serve    multi-session service stress: N client threads drive N
//                   sessions through one SessionService (shared route
//                   cache + shared worker pool) with deterministic
//                   per-session request scripts (translated-twin admissions
//                   interleaved with ECO moves), then the same scripts are
//                   replayed serially through independent Sessions and every
//                   transcript byte is compared.  [--sessions N]
//                   [--requests R] [--threads T]
//                   [--cache-capacity N].  Prints the per-session
//                   transcripts (deterministic), '#'-prefixed
//                   schedule-dependent telemetry, and a final
//                   `serve: ... identical=yes|no` verdict line; exits
//                   nonzero unless identical.
//   cong93 session  --in script.eco: replay a streaming ECO delta script
//                   through the incremental Session engine (hash-consed
//                   admission cache + in-place repair).  Script lines:
//                     gen <count> <sinks> [seed]   admit random nets (batch)
//                     net <sx> <sy> <x> <y> ...    admit one explicit net
//                     move <id> <sink> <x> <y>     ECO: move a sink
//                     add <id> <x> <y> [cap_f]     ECO: add a sink
//                     remove <id> <sink>           ECO: remove a sink
//                     retech <id> <tech> [scale]   ECO: swap technology
//                     route <id>                   print one result line
//                     print                        print every result line
//                     stats                        cache/session counters
//                   Every value is range-checked before use: coordinates
//                   within +-kMaxRoutableCoord (rtree/validate.h), ids and
//                   sink indices >= 0, gen counts in [1, 1e6] and sinks in
//                   [1, 4096], scales positive, caps finite; a stray
//                   trailing token is an error too.  A malformed line makes
//                   the command exit 2.
//                   [--cache-capacity N] [--no-cache]
//                   Each ECO prints `eco <id> <kind> inc=0|1 dq=<n>` and
//                   the net's result line: inc=1 when the repair replayed
//                   the net's stored quadrant rows and came out clean, dq
//                   the quadrants whose sink list changed (0 unless inc=1).
//                   Every ECO is one route; its result line is what
//                   route_single gives the mutated net.
//                   Everything except `stats` is byte-identical with the
//                   cache on or off, at any --threads count, and at any
//                   --cache-capacity.
//
// Parsing and execution are separated so both are unit-testable; main() in
// tools/cong93_main.cpp is a thin wrapper.
#ifndef CONG93_CLI_CLI_H
#define CONG93_CLI_CLI_H

#include <iosfwd>
#include <string>
#include <vector>

#include "geom/point.h"

namespace cong93 {

struct CliOptions {
    std::string command;  ///< gen|route|flow|simulate|batch|chip|session|serve

    // Input selection.
    std::string input_path;  ///< nets/trees file; empty => --random
    int random_count = 10;
    int sinks = 8;
    Coord grid = 4000;
    std::uint64_t seed = 1;

    // Routing.
    std::string algo = "atree";  ///< atree|steiner|mst|spt|brbc05|brbc10
    std::string out_path;        ///< optional tree dump

    // Technology.
    std::string tech = "mcm";  ///< mcm|cmos20|cmos15|cmos12|cmos05
    double driver_scale = 1.0;

    // Wiresizing (flow).
    int widths = 4;
    std::string sizer = "combined";  ///< combined|owsa|grewsa|bottomup

    // Simulation.
    std::string method = "two_pole";  ///< two_pole|transient
    double threshold = 0.5;
    bool rlc = false;

    // Batch pipeline.
    int threads = 0;            ///< <= 0: CONG93_THREADS / hardware default
    std::size_t max_nodes = 0;  ///< per-net arena cap (0 = uncapped)
    std::string fault_spec;     ///< fault-injection plan (batch/fault_inject.h)

    // Request lifecycle (batch/session/serve).
    double deadline_ms = 0.0;       ///< wall deadline per request (0 = none)
    std::size_t queue_cap = 0;      ///< admission bound (0 = unbounded)
    std::size_t memory_budget = 0;  ///< resident-bytes budget (0 = none)

    // Session (ECO) engine.
    std::size_t cache_capacity = 0;  ///< route-cache entries (0 = unbounded)
    bool session_cache = true;       ///< --no-cache turns admission caching off

    // Service facade (serve).
    int sessions = 2;  ///< concurrent sessions / client threads
    int requests = 3;  ///< requests per session script

    // Workload streaming (batch/chip).
    /// Nets per route_stream chunk.  0 keeps batch on one chunk (exact
    /// one-shot route_batch semantics) and gives chip its streaming
    /// default (4096).
    std::size_t chunk_nets = 0;
    /// Worst-slack leaderboard size of the chip report (0 = summary only).
    std::size_t top = 10;
};

/// Usage text for --help and error messages.
std::string cli_usage();

/// Parses argv-style arguments (excluding the program name).  Throws
/// std::invalid_argument with a descriptive message on bad input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// Executes the command, writing human-readable output to `out`.  When
/// `input_text` is non-null it is used instead of reading opts.input_path
/// (for tests).  Returns a process exit code.
int run_cli(const CliOptions& opts, std::ostream& out,
            const std::string* input_text = nullptr);

}  // namespace cong93

#endif  // CONG93_CLI_CLI_H
