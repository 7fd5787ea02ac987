// Per-layer measurements shared by the traced runs of every workload.
#ifndef E2E_LAYERS_H
#define E2E_LAYERS_H

#include <streambuf>
#include <string>
#include <vector>

#include "batch/batch.h"
#include "batch/pipeline.h"
#include "common.h"
#include "compose.h"
#include "designs.h"
#include "session/service.h"
#include "trace.h"

namespace e2e {

/// The batch layer measured untraced: route_batch over `nets` at one thread
/// and at the pool's width.
struct BatchLayer {
    double nets_per_s_1t = 0.0;
    double nets_per_s_nt = 0.0;
    double allocs_per_net = 0.0;  ///< one 1-thread round with counting on
    double lane_occupancy = 1.0;
    std::size_t rounds_1t = 0;
    std::size_t rounds_nt = 0;
    /// The 1-thread results, the reference the traced composition is gated
    /// against.
    std::vector<cong93::NetRouteResult> results_1t;
};

/// Runs 1-thread rounds for about `budget_s` seconds, then pool rounds for
/// about half that, and gates the two result digests against each other.
BatchLayer measure_batch_layer(const std::vector<cong93::Net>& nets,
                               const cong93::Technology& tech,
                               cong93::ThreadPool& pool, double budget_s);

/// Every item composed through compose_net into `tr`, block by block; each
/// block is first routed untraced by a 1-thread route_batch, so the traced
/// and untraced times of the same nets are taken side by side and share the
/// host's load.  Their ratio is the tracing overhead.  Allocation counting
/// must be on at entry and is on at exit.
struct ComposedDesign {
    std::vector<cong93::NetRouteResult> results;
    double untraced_s = 0.0;  ///< summed 1-thread route_batch time
    double traced_s = 0.0;    ///< summed `net` span time
};
ComposedDesign compose_design(const std::vector<cong93::WorkItem>& items,
                              const cong93::Technology& tech, std::size_t block,
                              Tracer& tr, ComposeCounts& counts);

/// How the traced `net` time splits: stage self times, the `net` span's own
/// self time (glue between stages), and the interleaved untraced time.
std::string trace_accounting(const std::map<std::string, Tracer::Totals>& totals,
                             const ComposedDesign& d);

/// Stage metrics (atree.*, rtree.*, delay.*, wiresize.*, sim.*) from the
/// spans compose_net recorded into `tr`, per composed net.
void add_stage_metrics(RunResult& out, const Tracer& tr, const ComposeCounts& c);

/// Opens a session on `svc` and admits into it the netlist `text` of `nets`
/// nets through NetlistReader, under a `session.admit` span when `tr` is
/// set.  The admitted net ids are 0..nets-1.  Callers admit one session
/// after another: admitting concurrently makes the cache hit count depend
/// on which session's batch drains first.
struct Admission {
    cong93::SessionId id = 0;
    cong93::PipelineStats stats;
};
Admission admit_session(cong93::SessionService& svc, const std::string& text,
                        std::size_t nets, Tracer* tr);

/// The session layer, measured on a SessionService with one session per
/// region: sequential admission of each region's netlist text, then each
/// session's script replayed on one thread, two passes, the second traced.
/// With `recompose` set, every traced request's net is also re-routed from
/// outside through compose_net (dirty quadrants only when the session
/// repaired incrementally) into `recompose`, and gated against the
/// session's result.
struct SessionLayer {
    double admit_us_per_net = 0.0;
    double admit_serial_share = 0.0;  ///< admission wall outside route_batch
    double cache_served_share = 0.0;
    double cache_contended_per_knet = 0.0;
    double eco_incremental_share = 0.0;
    double eco_dirty_quadrants = 0.0;  ///< mean per traced request
    double apply_incremental_p50_us = 0.0;
    double apply_full_p50_us = 0.0;
    std::size_t traced_requests = 0;
    std::vector<cong93::NetRouteResult> final_results;  ///< all regions, in order
};

SessionLayer measure_session_layer(const std::vector<std::vector<cong93::WorkItem>>& regions,
                                   const std::vector<std::string>& texts,
                                   const std::vector<EcoScript>& scripts,
                                   const cong93::Technology& tech, int threads,
                                   Tracer& tr, Tracer* recompose,
                                   ComposeCounts* recompose_counts);

void add_session_metrics(RunResult& out, const SessionLayer& s);
void add_batch_metrics(RunResult& out, const BatchLayer& b, int threads);

/// A read-only std::streambuf over a string, so each round parses the same
/// netlist text without copying it.
class TextBuf : public std::streambuf {
public:
    explicit TextBuf(const std::string& s)
    {
        char* p = const_cast<char*>(s.data());
        setg(p, p, p + s.size());
    }
};

/// Pipeline options of the timed paths: `threads` workers on `pool`.
cong93::PipelineOptions pool_options(cong93::ThreadPool* pool, int threads);

}  // namespace e2e

#endif  // E2E_LAYERS_H
