// Multi-session service facade: one shared route cache + one worker pool
// serving concurrent route/ECO requests from independent sessions.
//
// A SessionService models the serving-stack deployment of the engine: many
// clients (placement threads, RPC handlers) each own a logical Session, but
// routing capacity and the hash-consed route cache are process-wide.  The
// service owns both and wires every session it opens to them:
//
//   * the shared RouteCache (session/route_cache.h) is attached as each
//     session's shared_cache, so a duplicate net routed by any session is a
//     cache hit for every other session.  The cache sits behind one lock,
//     taken only on the admission path: once per net for the probe, and
//     per batch for config_of and the epoch drain (single-flight groups
//     duplicates in a serial pass before routing, so nothing waits on a
//     leader).  ECO applies never touch it;
//   * the shared ThreadPool backs each session's add_batch fan-out
//     (PipelineOptions::pool).  Concurrent batches multiplex onto the one
//     pool via per-call TaskGroups (batch/batch.h), so a request waits only
//     for its own jobs and failures stay with the request that caused them.
//
// Concurrency contract: requests against DIFFERENT sessions may run
// concurrently from any number of client threads (each session slot is
// mutexed; the underlying Session stays single-threaded by construction).
// Requests against one session serialize on its slot mutex.
//
// Determinism: each request is byte-identical to the same request run
// serially (the route_batch epoch-drain contract), and PR-4 fault isolation
// holds per request -- a fault-injected request bypasses the shared cache
// entirely (batch/pipeline.cpp), and per-request ECO paths never consult it,
// so a faulted request can never poison cache state other sessions share.
// What IS schedule-dependent across concurrent requests is cache *timing*:
// whether session B's batch sees session A's interns depends on which drain
// ran first, exactly like any shared cache.  Replaying the same per-session
// request sequences serially in the same global order reproduces every
// output byte (tests/test_shared_cache.cpp's soak asserts this).
#ifndef CONG93_SESSION_SERVICE_H
#define CONG93_SESSION_SERVICE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "session/session.h"

namespace cong93 {

/// Handle to a session owned by a SessionService (dense, open order).
using SessionId = std::size_t;

/// Thrown by admission control when the bounded request queue is full: the
/// request was refused before any work ran (the whole-request form of the
/// per-net RouteStatus::rejected_overload rung).  Clients back off and
/// retry; nothing was half-done, no state changed.
class OverloadError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct ServiceOptions {
    /// Defaults for every session the service opens (open() overrides win).
    /// pipeline.pool and shared_cache are overwritten by the service's own.
    SessionOptions session;
    /// Worker threads of the shared pool (<= 0: default_thread_count()).
    int threads = 0;
    /// Shared cache entry capacity (0 = unbounded).
    std::size_t cache_capacity = 0;
    /// Bounded admission queue: at most this many work-bearing requests
    /// (add_batch / add / apply) in flight or waiting on a session slot at
    /// once; request queue_cap + 1 is refused with OverloadError instead of
    /// queueing unboundedly.  0 = unbounded (the PR-8 behavior).
    std::size_t queue_cap = 0;
    /// Global resident-bytes budget spanning the shared cache plus every
    /// session's resident bytes (workspace arenas and per-net state).  After
    /// each work-bearing request the service pressure-evicts LRU cache
    /// entries until the total fits (sessions keep their arenas and nets,
    /// so the cache is the evictable pool).  0 = no budget.
    std::size_t memory_budget_bytes = 0;
};

/// Cumulative request telemetry (schedule-dependent counters included; see
/// the header comment for what the determinism contract covers).
struct ServiceStats {
    std::uint64_t batches = 0;  ///< route_batch requests served
    std::uint64_t adds = 0;     ///< single-net add requests served
    std::uint64_t applies = 0;  ///< ECO apply requests served
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_shared = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_contended = 0;  ///< cache-lock acquisitions that waited
    /// Work-bearing requests refused by the queue cap (OverloadError thrown).
    std::uint64_t rejected_overload = 0;
    /// Cache entries dropped by the memory budget (evict_to_resident).
    std::uint64_t pressure_evictions = 0;
};

class SessionService {
public:
    explicit SessionService(Technology tech, ServiceOptions opts = {});

    /// Opens a session wired to the shared cache and pool, using the
    /// service-default session options.
    SessionId open();
    /// Same, but from explicit options (their pipeline.pool / shared_cache
    /// are replaced by the service's own; pipeline.threads is raised to the
    /// pool width so enough worker slots exist).
    SessionId open(SessionOptions opts);

    /// route_batch through session `id` with the shared cache + pool.
    /// Safe to call concurrently with requests against other sessions.
    std::vector<NetId> add_batch(SessionId id, const std::vector<Net>& nets,
                                 PipelineStats* stats = nullptr);

    /// Chunked admission from a workload source (0 = one chunk;
    /// admit_chunks, workload/stream.h): each chunk takes its own
    /// admission ticket and session-slot acquisition through the vector
    /// overload, so backpressure (queue_cap ->
    /// OverloadError) and the resident-bytes budget apply per chunk -- a
    /// 100k-net design never needs a 100k-net admission window.  Chunks
    /// admitted before a mid-stream refusal stay admitted; the
    /// OverloadError propagates to the caller.
    std::vector<NetId> add_batch(SessionId id, NetSource& source,
                                 std::size_t chunk_nets = 0,
                                 PipelineStats* stats = nullptr);

    /// Single-net admission through session `id`.
    NetId add(SessionId id, Net net);

    /// ECO apply through session `id`.
    EcoOutcome apply(SessionId id, NetId net, const EcoDelta& delta);

    /// Copy of the stored result (copy, not reference: another thread's
    /// request against the same session may replace it concurrently).
    NetRouteResult result(SessionId id, NetId net);

    std::size_t sessions() const;
    RouteCache& cache() { return cache_; }
    ThreadPool& pool() { return pool_; }
    ServiceStats stats() const;

    /// Approximate resident bytes of everything the memory budget covers:
    /// the shared cache plus every open session's Session::resident_bytes()
    /// (arenas and per-net state).  Locks each slot briefly (one at a time)
    /// to read its O(1) running total.
    std::size_t resident_bytes();

private:
    /// One open session behind its request mutex.  unique_ptr keeps slot
    /// addresses stable while open() grows the vector under mutex_.
    struct Slot {
        std::mutex m;
        Session session;
        Slot(Technology tech, SessionOptions opts)
            : session(std::move(tech), std::move(opts))
        {
        }
    };

    Slot& slot(SessionId id);
    void count_batch(const PipelineStats& stats);

    /// RAII admission ticket: the constructor takes the queue-cap decision
    /// under mutex_ (throwing OverloadError when full), the destructor
    /// releases the in-flight slot even when the request itself throws.
    class Admission {
    public:
        Admission(SessionService& svc, const char* op);
        ~Admission();
        Admission(const Admission&) = delete;
        Admission& operator=(const Admission&) = delete;

    private:
        SessionService& svc_;
    };

    /// Memory-budget enforcement, run after every work-bearing request:
    /// when resident_bytes() exceeds the budget, pressure-evicts LRU cache
    /// entries until the total fits (or the cache is empty -- session
    /// state is not evictable).  No-op without a budget.
    void enforce_budget();

    Technology tech_;
    ServiceOptions opts_;
    RouteCache cache_;
    ThreadPool pool_;
    mutable std::mutex mutex_;  ///< guards slots_ growth, stats_, in_flight_
    std::vector<std::unique_ptr<Slot>> slots_;
    ServiceStats stats_;
    std::size_t in_flight_ = 0;  ///< admitted, not yet finished requests
};

}  // namespace cong93

#endif  // CONG93_SESSION_SERVICE_H
