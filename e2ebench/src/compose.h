// One net routed through the program's public per-net stages, in the order
// route_batch runs them on a clean net:
//
//   validate_net -> partition_quadrants / build_atree / assemble_quadrants
//   -> FlatTree::build -> route_report_compiled
//   -> WiresizeContext + grewsa_owsa
//   -> RcTree::from_wiresized_flat + compute_moments
//
// The traced run wraps each call in a span.  Because the stages are called
// one by one from here, the composed result must equal route_batch's under
// format_results; the callers gate on that.
#ifndef E2E_COMPOSE_H
#define E2E_COMPOSE_H

#include <array>
#include <cstdint>
#include <optional>

#include "atree/generalized.h"
#include "batch/pipeline.h"
#include "trace.h"

namespace e2e {

/// A-tree state of one net kept between ECO requests: the partition and
/// per-quadrant trees it was last built from.
struct QuadrantState {
    bool valid = false;
    cong93::QuadrantPartition part;
    std::array<std::optional<cong93::AtreeResult>, 4> quads;
};

/// Work counters summed over composed nets.
struct ComposeCounts {
    std::uint64_t nets = 0;
    std::uint64_t heuristic_moves = 0;   ///< in the quadrants actually built
    std::uint64_t quadrants_built = 0;
    std::uint64_t wiresized = 0;         ///< nets that ran grewsa_owsa
    std::uint64_t owsa_assignments = 0;  ///< CombinedResult::assignments_examined
    std::uint64_t tight_bounds = 0;      ///< CombinedResult::bounds_tight
};

/// Routes `raw` through the stages above against `ws`.  With `state` valid
/// and `rebuild_all` false, only quadrants whose partitioned sink list
/// changed are rebuilt (the session's repair rule); `state` is updated
/// either way.  Every composed tree is also checked against
/// build_atree_general (outside the spans); a mismatch or a stage exception
/// throws GateFailure.
cong93::NetRouteResult compose_net(const cong93::Net& raw, std::size_t index,
                                   std::uint64_t diag_seed,
                                   const cong93::Technology& tech,
                                   const cong93::PipelineOptions& opts,
                                   cong93::Workspace& ws, Tracer* tr,
                                   ComposeCounts& counts,
                                   QuadrantState* state = nullptr,
                                   bool rebuild_all = true);

}  // namespace e2e

#endif  // E2E_COMPOSE_H
