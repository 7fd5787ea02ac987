// Deterministic fault-injection harness for the batch routing pipeline.
//
// A FaultPlan decides, per net index and per pipeline stage, whether to
// force a failure: an injected construction/fallback/wiresize throw, an
// OOM-simulating arena cap at FlatTree compilation, or NaN technology
// parameters (which must be caught by the report stage's finiteness guard).
// Draws are pure functions of (plan seed, stage, net index) via splitmix64
// (net_seed), so the same plan over the same batch injects the same faults
// at any thread count and chunk size -- the isolation invariants
// (serial == parallel byte-identity of results *and* diagnostics) stay
// testable under fault load.
//
// Gating: a plan is off by default.  It reaches the pipeline only through
// PipelineOptions::faults (the CLI's --fault-inject), as a spec such as
//
//   seed=7,topology=0.25,fallback=0.5,wiresize=0.25,moment=0.1,nan=0.1,
//   arena-cap=40@0.2
//
// (rates in [0,1]; `arena-cap=N@R` caps the compiled tree at N nodes for a
// rate-R subset of nets).  parse() rejects malformed specs loudly.
//
// Virtual clock: deadline expiry driven by wall time is schedule-dependent,
// so the plan can instead carry a deterministic virtual clock.  Each net
// gets a private tick counter charged a fixed injected cost per stage
// (`vcost-topology=N,...`) plus an optional per-net deterministic jitter
// (`vjitter=N`: extra ticks in [0,N) drawn from the net index); when the
// counter exceeds `vdeadline=N` ticks the net degrades exactly as a
// wall-clock-pressured net would -- but bit-reproducibly at any thread
// count, since the clock is a pure function of the net index.
#ifndef CONG93_BATCH_FAULT_INJECT_H
#define CONG93_BATCH_FAULT_INJECT_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "batch/errors.h"

namespace cong93 {

struct Technology;

/// Exception type of every injected fault, so tests and logs can tell
/// injected failures from organic ones.
class InjectedFault : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct FaultPlan {
    bool enabled = false;
    std::uint64_t seed = 0;       ///< base seed of the per-net fault draws

    double topology_rate = 0.0;   ///< P[A-tree construction throw]
    double fallback_rate = 0.0;   ///< P[BRBC fallback throw] (drives SPT/failed)
    double wiresize_rate = 0.0;   ///< P[grewsa_owsa throw]
    double moment_rate = 0.0;     ///< P[moment cross-check throw]
    double nan_tech_rate = 0.0;   ///< P[NaN technology parameters]
    double arena_cap_rate = 0.0;  ///< P[the arena cap applies to this net]
    std::size_t arena_cap_nodes = 0;  ///< simulated arena capacity (nodes)

    // --- deterministic virtual clock (see header comment) ---
    std::uint64_t vdeadline_ticks = 0;   ///< per-net tick budget; 0 = off
    std::uint64_t vcost_topology = 0;    ///< injected ticks per stage
    std::uint64_t vcost_fallback = 0;
    std::uint64_t vcost_compile = 0;
    std::uint64_t vcost_report = 0;
    std::uint64_t vcost_wiresize = 0;
    std::uint64_t vcost_moment = 0;
    std::uint64_t vjitter = 0;  ///< per-net extra ticks in [0, vjitter)

    /// True when the plan carries a virtual deadline clock.
    bool virtual_clock() const { return enabled && vdeadline_ticks > 0; }

    /// Injected virtual ticks charged when `stage` completes for a net.
    std::uint64_t vcost_of(RouteStage stage) const;

    /// Deterministic per-net jitter ticks in [0, vjitter); 0 when unset.
    std::uint64_t vjitter_of(std::size_t net_index) const;

    /// Rate configured for `stage` (report == nan-tech, compile == arena cap).
    double rate_of(RouteStage stage) const;

    /// Deterministic per-net draw for one stage; false when disabled.
    bool fires(std::size_t net_index, RouteStage stage) const;

    /// Throws InjectedFault(what) when the stage's draw fires for this net.
    void maybe_throw(std::size_t net_index, RouteStage stage,
                     const char* what) const;

    /// Copy of `tech` with NaN unit resistance/capacitance -- indistinguishable
    /// from a corrupted technology feed; the report stage's finiteness guard
    /// must catch the resulting non-finite delays.
    static Technology corrupt_nan(const Technology& tech);

    /// Parses a spec string (see header comment).  An empty spec yields a
    /// disabled plan; malformed specs throw std::invalid_argument.
    static FaultPlan parse(const std::string& spec);
};

}  // namespace cong93

#endif  // CONG93_BATCH_FAULT_INJECT_H
