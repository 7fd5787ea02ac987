// Input generators.  Every design and ECO script is a pure function of the
// --seed argument; the program under test only ever sees the generated nets
// (as netlist text) and the generated deltas.
#ifndef E2E_DESIGNS_H
#define E2E_DESIGNS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "session/session.h"
#include "workload/net_source.h"

namespace e2e {

/// Shape of a generated design.  Sink counts are drawn from
/// [min_sinks, small_max] with probability small_share, else from
/// (small_max, max_sinks]; each net's terminals lie in a square window of
/// side [min_window, max_window] placed inside [0, grid]^2.  No two
/// terminals of a net coincide, so validate_net never rewrites a net.
struct DesignSpec {
    std::size_t nets = 0;
    int min_sinks = 2;
    int small_max = 6;
    int max_sinks = 16;
    double small_share = 1.0;
    cong93::Coord grid = 4000;
    cong93::Coord min_window = 100;
    cong93::Coord max_window = 1500;
};

std::vector<cong93::WorkItem> make_design(const DesignSpec& spec, Rng& rng);

/// One random net of `sinks` sinks in the window with lower-left corner
/// `origin` and side `window`.
cong93::Net make_net(Rng& rng, int sinks, cong93::Point origin, cong93::Coord window);

/// Net count, sink-count histogram and constrained share of a design.
std::string design_summary(const std::vector<cong93::WorkItem>& items);

/// The regions the eco_service sessions admit: `sessions` regions of
/// `nets_per_region` nets with 8..32 sinks.  About half of each region's
/// nets are translated copies of nets from one shared bit-slice library, so
/// admission exercises the shared route cache.
struct EcoDesign {
    std::vector<std::vector<cong93::WorkItem>> regions;
    std::size_t library_nets = 0;
    std::size_t copies = 0;  ///< region nets that are library copies
};
EcoDesign make_eco_design(int sessions, std::size_t nets_per_region, Rng& rng);

/// One ECO request of a client's closed loop.
struct EcoRequest {
    cong93::NetId net = 0;
    cong93::EcoDelta delta;
};

/// A client's request script.  The script is a sequence of episodes; an
/// episode applies one to three deltas to one net of a skewed hot set and
/// then undoes them in reverse order, so every episode (and every pass over
/// the script) starts from the admitted geometry.  Replaying the script
/// therefore repeats the same work, pass after pass.  The hot set mixes
/// nets the session repairs incrementally with nets it re-routes in full,
/// in a fixed proportion (see make_eco_script).
struct EcoScript {
    std::vector<EcoRequest> reqs;
    std::array<std::size_t, 4> kinds{};  ///< by EcoDelta::Kind
    std::size_t hot_nets = 0;
    /// Every sample_every-th request (see make_eco_script), with the net and
    /// technology it leaves behind: the inputs of the route_single gate.
    std::vector<std::size_t> sample_pos;
    std::vector<cong93::Net> sample_net;
    std::vector<cong93::Technology> sample_tech;
};

EcoScript make_eco_script(const std::vector<cong93::WorkItem>& region,
                          const cong93::Technology& base,
                          const cong93::Technology& alt, std::size_t length,
                          std::size_t hot, std::size_t sample_every, Rng& rng);

}  // namespace e2e

#endif  // E2E_DESIGNS_H
