// Streaming batch driver: route a NetSource of any size through the
// existing route_batch machinery in bounded-memory chunks.
//
// route_stream pulls `chunk_nets` items at a time, routes each chunk with
// route_batch (reusing one persistent set of per-slot Workspaces, one
// worker pool and two chunk buffers across the whole stream), hands the
// chunk's items + results to a visitor, and drops them -- so peak resident
// bytes are a function of chunk size x worker slots, never of design size.
// A 100k+ net design streams through the same arenas a 1k design uses.
//
// Pulls overlap routing: while the pool routes chunk k, the streaming
// (calling) thread pulls chunk k+1 into the spare buffer, so two chunks are
// resident at once.  Every pull() and every visitor call still runs on the
// calling thread, and the visitor of chunk k runs after chunk k+1 was
// pulled.  With one worker thread nothing runs concurrently: chunk k+1 is
// pulled after chunk k's nets are routed, outside route_batch's timed
// window.
//
// Determinism contracts (inherited from route_batch per chunk, asserted in
// tests/test_workload.cpp):
//   * serial == N-thread byte-identity per chunk, hence for the stream;
//   * chunked == one-shot: per-net results are index-addressed pure
//     functions of (net, tech, opts), and the route cache evolves by the
//     same net-order epoch drain either way, so streaming a design in any
//     chunking serializes byte-identically (via format_results) to one
//     route_batch over the same nets -- provided per-chunk request-scoped
//     controls (admission caps, deadlines) are off, since those are
//     defined per route_batch call and therefore apply PER CHUNK;
//   * cache on == cache off, per the PR-8 contract.
//
// Error policy: nothing escapes.  Items carrying a reader parse error are
// reported as RouteStatus::invalid_input with the parse message in their
// diagnostic; a source whose pull() throws stops the stream cleanly with
// the message in StreamStats::source_error -- every chunk pulled before the
// throw is still routed and visited, and the source is not pulled again.
// If route_batch itself throws, the stream stops without visiting that
// chunk, and the source has already been advanced by one chunk (the pull
// that overlapped it).
#ifndef CONG93_WORKLOAD_STREAM_H
#define CONG93_WORKLOAD_STREAM_H

#include <cstddef>
#include <functional>
#include <string>

#include "batch/pipeline.h"
#include "workload/net_source.h"

namespace cong93 {

struct StreamOptions {
    /// Items routed per route_batch call; 0 pulls the whole source as one
    /// chunk (the compatibility mode for callers that need exact one-shot
    /// route_batch behavior including per-call admission/deadline scope).
    std::size_t chunk_nets = 4096;
};

/// Aggregated telemetry of one route_stream call.
struct StreamStats {
    std::size_t chunks = 0;          ///< route_batch calls issued
    std::size_t nets = 0;            ///< items routed (including error items)
    std::size_t peak_chunk_nets = 0; ///< largest single chunk
    double seconds = 0.0;            ///< summed route_batch time
    /// `nets` over the wall time of the whole route_stream call, pulls and
    /// visitor included, at any thread count.
    double nets_per_sec = 0.0;
    /// Summed time spent in source.pull().  Pulls overlapped with routing
    /// also fall inside `seconds`; only the first pull, and every pull of a
    /// serial stream, lie outside it.
    double pull_seconds = 0.0;
    /// Bytes resident in the persistent per-slot workspaces when the stream
    /// finished -- the streaming memory footprint (chunk-bounded, by
    /// construction independent of how many chunks flowed through).
    std::size_t workspace_resident_bytes = 0;
    /// Non-empty when the source's pull() (or a whole-batch failure) threw:
    /// the stream stopped after the last complete chunk and this carries
    /// the exception text.  route_stream itself never throws on this path.
    std::string source_error;
    /// Pipeline counters aggregated across chunks by
    /// accumulate_pipeline_stats.
    PipelineStats pipeline;
};

/// Per-chunk result callback: `first_index` is the stream-global index of
/// items[0] (results are chunk-local, parallel to items).  Called on the
/// streaming thread, in chunk order, after the chunk's route_batch barrier
/// (by which time the next chunk has been pulled).
using StreamVisitor = std::function<void(
    std::size_t first_index, const std::vector<WorkItem>& items,
    const std::vector<NetRouteResult>& results)>;

/// Routes everything `source` yields.  Request-scoped PipelineOptions
/// controls (deadline, cancel, admit_cap, memory budget, cache) apply per
/// chunk, as documented above.  Without opts.pool the stream builds one
/// pool of resolve_pool_threads(opts) workers for all its chunks.
StreamStats route_stream(NetSource& source, const Technology& tech,
                         const PipelineOptions& opts = {},
                         const StreamOptions& stream_opts = {},
                         const StreamVisitor& visit = {});

/// Folds one route_batch call's stats into a running cross-chunk aggregate:
/// counts (seconds, nets, workspace counters, outcome tallies, cache
/// traffic, telemetry) are summed, so the derived rates cover every chunk;
/// high-water fields (threads) are maxed and the point-in-time cache
/// resident_bytes replaced.
void accumulate_pipeline_stats(PipelineStats& total, const PipelineStats& chunk);

/// One chunk of nets admitted somewhere (a session, a service): returns the
/// ids it assigned and fills the chunk's stats.
using ChunkAdmit = std::function<std::vector<std::size_t>(
    const std::vector<Net>& nets, PipelineStats* stats)>;

/// Chunked admission: pulls `source` dry in `chunk_nets`-item chunks (0 =
/// one chunk), hands each chunk's geometry to `admit` and returns every id
/// it assigned, in order.  Metadata is dropped -- items a reader rejected
/// admit as their cleared geometry.  `stats` (optional) sums the chunks'
/// stats (accumulate_pipeline_stats).  What `admit` throws propagates;
/// chunks admitted before it stay admitted.
std::vector<std::size_t> admit_chunks(NetSource& source, std::size_t chunk_nets,
                                      PipelineStats* stats,
                                      const ChunkAdmit& admit);

}  // namespace cong93

#endif  // CONG93_WORKLOAD_STREAM_H
