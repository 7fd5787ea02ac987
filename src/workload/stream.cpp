#include "workload/stream.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <optional>

#include "batch/workspace.h"

namespace cong93 {

void accumulate_pipeline_stats(PipelineStats& total, const PipelineStats& chunk)
{
    total.threads = std::max(total.threads, chunk.threads);
    total.pool_threads = std::max(total.pool_threads, chunk.pool_threads);
    total.seconds += chunk.seconds;
    total.counters += chunk.counters;
    total.nets += chunk.nets;
    total.nets_routed += chunk.nets_routed;
    total.cache_hits += chunk.cache_hits;
    total.cache_misses += chunk.cache_misses;
    total.cache_shared += chunk.cache_shared;
    total.cache_evictions += chunk.cache_evictions;
    total.resident_bytes = chunk.resident_bytes;
    total.cache_shard_contention += chunk.cache_shard_contention;
    total.nets_ok += chunk.nets_ok;
    total.nets_fallback += chunk.nets_fallback;
    total.nets_uniform_width += chunk.nets_uniform_width;
    total.nets_deadline_degraded += chunk.nets_deadline_degraded;
    total.nets_invalid += chunk.nets_invalid;
    total.nets_cancelled += chunk.nets_cancelled;
    total.nets_rejected += chunk.nets_rejected;
    total.nets_failed += chunk.nets_failed;
    total.fault_events += chunk.fault_events;
    total.deadline_wall_degraded += chunk.deadline_wall_degraded;
}

std::vector<std::size_t> admit_chunks(NetSource& source, std::size_t chunk_nets,
                                      PipelineStats* stats,
                                      const ChunkAdmit& admit)
{
    const std::size_t chunk = chunk_nets == 0
                                  ? std::numeric_limits<std::size_t>::max()
                                  : chunk_nets;
    std::vector<std::size_t> ids;
    std::vector<WorkItem> items;
    std::vector<Net> nets;
    for (;;) {
        items.clear();
        if (source.pull(items, chunk) == 0) break;
        nets.clear();
        nets.reserve(items.size());
        for (WorkItem& item : items) nets.push_back(std::move(item.net));
        PipelineStats cs;
        const std::vector<std::size_t> chunk_ids = admit(nets, &cs);
        ids.insert(ids.end(), chunk_ids.begin(), chunk_ids.end());
        if (stats != nullptr) accumulate_pipeline_stats(*stats, cs);
    }
    return ids;
}

StreamStats route_stream(NetSource& source, const Technology& tech,
                         const PipelineOptions& opts,
                         const StreamOptions& stream_opts,
                         const StreamVisitor& visit)
{
    const auto t_start = std::chrono::steady_clock::now();
    StreamStats stats;
    const std::size_t chunk = stream_opts.chunk_nets == 0
                                  ? std::numeric_limits<std::size_t>::max()
                                  : stream_opts.chunk_nets;

    // One pool for the whole stream: without one route_batch would build
    // (and join) a fresh pool for every chunk.
    PipelineOptions popts = opts;
    std::optional<ThreadPool> own_pool;
    if (popts.pool == nullptr) {
        const int pool_threads = resolve_pool_threads(popts);
        if (pool_threads > 1) popts.pool = &own_pool.emplace(pool_threads);
    }

    // One set of buffers and per-slot workspaces for the whole stream: the
    // bounded-memory property is exactly their chunk-sized high-water mark.
    // Two chunks are resident: `items` is being routed while `next` is
    // pulled.
    std::vector<Workspace> workspaces;
    std::vector<WorkItem> items;
    std::vector<WorkItem> next;
    std::vector<Net> nets;
    std::vector<std::uint64_t> seeds;
    std::vector<NetRouteResult> results;

    // Pulls the next chunk into `next` on this thread.  route_batch runs it
    // while the pool routes the current chunk; a throwing source leaves
    // `next` empty, so the chunk in flight is still delivered and the
    // source is never pulled again.
    const std::function<void()> pull_next = [&] {
        next.clear();
        const auto t0 = std::chrono::steady_clock::now();
        try {
            source.pull(next, chunk);
        } catch (const std::exception& e) {
            stats.source_error = std::string("pull: ") + e.what();
            next.clear();
        }
        stats.pull_seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
    };

    std::size_t first_index = 0;

    pull_next();
    while (!next.empty()) {
        items.swap(next);
        // route_batch routes plain nets: lend it the items' nets and take
        // them back for the visitor, which reads item.net.
        nets.clear();
        seeds.clear();
        nets.reserve(items.size());
        seeds.reserve(items.size());
        for (WorkItem& item : items) {
            nets.push_back(std::move(item.net));
            seeds.push_back(item.meta.diag_seed);
        }

        PipelineStats cs;
        try {
            results = route_batch(nets, seeds, tech, popts, &cs, &workspaces,
                                  pull_next);
        } catch (const std::exception& e) {
            stats.source_error = std::string("route_batch: ") + e.what();
            break;
        }
        for (std::size_t i = 0; i < items.size(); ++i)
            items[i].net = std::move(nets[i]);

        // Reader-rejected items: overwrite in place (index-addressed, after
        // the barrier -- deterministic at any thread count) so malformed
        // nets surface as invalid_input diagnostics, never as exceptions.
        bool rewrote = false;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const NetMeta& meta = items[i].meta;
            if (meta.parse_error.empty()) continue;
            NetRouteResult r;
            r.status = RouteStatus::invalid_input;
            r.diag.net_index = i;
            r.diag.net_seed = meta.diag_seed;
            r.diag.note(RouteStage::validate, "netlist: " + meta.parse_error);
            results[i] = std::move(r);
            rewrote = true;
        }
        if (rewrote) cs.tally_outcomes(results);

        accumulate_pipeline_stats(stats.pipeline, cs);

        ++stats.chunks;
        stats.nets += items.size();
        stats.peak_chunk_nets = std::max(stats.peak_chunk_nets, items.size());

        if (visit) visit(first_index, items, results);
        first_index += items.size();
    }

    stats.seconds = stats.pipeline.seconds;
    for (const Workspace& w : workspaces)
        stats.workspace_resident_bytes += w.resident_bytes();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
    if (wall > 0.0) stats.nets_per_sec = static_cast<double>(stats.nets) / wall;
    return stats;
}

}  // namespace cong93
