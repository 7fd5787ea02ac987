// Hash-consed route cache: duplicate nets are routed once, every other
// occurrence is served by result sharing.
//
// A chip-scale batch is full of repeated structures -- clock sub-nets, bus
// bit slices, tiled macros -- that differ only by placement.  Every numeric
// field of a NetRouteResult (node/segment counts, wirelength, delays, width
// assignment) is invariant under translation of the net, so one canonical
// signature covers every translated copy:
//
//   signature = (config, source-relative sink sequence with exact caps)
//
// where `config` fingerprints everything else that feeds the result bits:
// the technology parameters and the pipeline options.  The 64-bit hash of
// the signature quantizes sink caps to float so near-duplicate caps land in
// one bucket, but equality always compares the exact double bits:
// quantization can only cause a (handled) hash collision, never a wrong
// share.  The sink sequence is deliberately NOT sorted: sink order feeds
// the A-tree construction's tie-breaking, so permuted duplicates occupy
// distinct entries.  The sig:: helpers work straight off a Net, so the hot
// path neither allocates nor materializes a CacheKey; key_of() builds one
// only when an entry is actually inserted.
//
// The cache is CONCURRENT: one mutex guards one strict-LRU list, one
// hash-chain map and one stats block, so concurrent route_batch calls from
// many sessions probe and fill one shared cache.
// Two rules make it byte-deterministic under any thread schedule:
//
//   1. probe() never reorders the LRU list.  During a batch every lookup
//      is a pure read of the batch-start cache state;
//      the LRU touch/insert effects are recorded as CacheEpochEvents and
//      replayed at batch end by drain(), sorted by net index.  Cache
//      contents therefore evolve exactly as if the batch had run serially
//      in net order -- 1 thread and N threads leave byte-identical caches.
//   2. Payloads are shared_ptr<const NetRouteResult>: a probe taken just
//      before a concurrent batch's drain evicts the entry keeps its payload
//      alive, and fanning one payload out to many served nets shares one
//      refcounted allocation instead of copying.
//
// Only *clean* results are interned: status == ok and an empty diagnostic
// (validation notes and fault events may embed absolute coordinates and are
// per-net anyway).  The batch driver (batch/pipeline.cpp) enforces a
// deterministic single-flight rule on top: a serial pass in net order
// probes every net and groups the misses by signature, the pool routes each
// group's lowest-index net, and a clean leader's payload then serves the
// rest of its group (followers of an unclean leader route individually).
//
// Eviction is strict LRU over the whole cache under an optional total
// entry capacity, plus pressure eviction against a resident-bytes budget.
// Which entries a bound evicts never changes output bytes: every serve is
// bit-identical to routing the net.
#ifndef CONG93_SESSION_ROUTE_CACHE_H
#define CONG93_SESSION_ROUTE_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/pipeline.h"

namespace cong93 {

/// One sink of a canonical signature: position relative to the net source,
/// load cap carried exactly (-1 encodes "technology default", matching
/// Net::sink_cap).
struct CacheSink {
    Coord dx = 0;
    Coord dy = 0;
    double cap = -1.0;
};

/// Canonical net signature: config fingerprint + exact source-relative sink
/// sequence, plus the quantized 64-bit hash used for bucketing.
struct CacheKey {
    std::uint32_t config = 0;
    std::uint64_t hash = 0;
    std::vector<CacheSink> sinks;
};

/// Immutable interned route payload (diag cleared, net_index/net_seed zero;
/// servers re-stamp per net).
using CachedRoute = std::shared_ptr<const NetRouteResult>;

namespace sig {

/// Signature hash of `net` under config id `config`, computed directly from
/// the net -- no CacheKey materialization, no heap allocation.  Equals
/// key_of(net, config).hash bit for bit.
std::uint64_t hash_of(const Net& net, std::uint32_t config);

/// Exact signature equality between a stored key and a candidate net (config,
/// then sink sequence, caps compared by bit pattern), again without
/// materializing the candidate's key.  The hash is a bucket, not the
/// identity.
bool key_matches_net(const CacheKey& key, const Net& net, std::uint32_t config);

/// Exact signature equality between two nets (same source-relative sink
/// sequence, caps compared by bit pattern).  Both nets are assumed to hash
/// under the same config.
bool nets_equivalent(const Net& a, const Net& b);

/// Materializes the canonical signature (the insert path).
CacheKey key_of(const Net& net, std::uint32_t config);

}  // namespace sig

/// One deferred LRU mutation, recorded during the parallel region and
/// applied at batch end in net-index order (the epoch drain).  A touch
/// (insert == false) moves the probed entry most-recently-used; an insert
/// interns `payload` under `net`'s signature.  `net` must outlive the drain.
struct CacheEpochEvent {
    std::size_t net_index = 0;
    std::uint64_t hash = 0;
    std::uint32_t config = 0;
    const Net* net = nullptr;
    CachedRoute payload;  ///< insert: the interned result; touch: unused
    bool insert = false;
};

/// Cumulative probe telemetry (monotone over the cache's lifetime; per-batch
/// deltas are reported in PipelineStats).
struct RouteCacheStats {
    std::uint64_t hits = 0;        ///< probes that returned an entry
    std::uint64_t misses = 0;      ///< probes that returned nothing
    std::uint64_t insertions = 0;  ///< new entries stored
    std::uint64_t evictions = 0;   ///< entries dropped by the LRU bound
    std::uint64_t contended = 0;   ///< cache-lock acquisitions that waited
};

/// Canonicalizes a clean route result into an immutable shared payload:
/// diag cleared (net_index/net_seed zero), ready for interning/serving.
CachedRoute make_cached_route(const NetRouteResult& result);

class RouteCache {
public:
    struct ProbeResult {
        CachedRoute payload;     ///< empty on miss
        bool contended = false;  ///< the cache lock was held by someone else
    };

    /// `capacity` bounds the total entry count (strict LRU; 0 means
    /// unbounded).
    explicit RouteCache(std::size_t capacity = 0);

    /// Interns the exact (technology, options) pair this cache consultation
    /// runs under and returns its fingerprint id.  Two calls return the same
    /// id iff every result-bit-relevant field compares bit-identical, so
    /// entries written under one configuration can never serve a lookup made
    /// under another.  Thread-safe.
    std::uint32_t config_of(const Technology& tech, const PipelineOptions& opts);

    /// Read-only lookup of `net` (hash = sig::hash_of(net, config)): returns
    /// the payload without touching the LRU order (header rule 1) and counts
    /// a hit or miss.
    ProbeResult probe(std::uint64_t hash, std::uint32_t config, const Net& net);

    /// Epoch drain: sorts `events` by net index and replays them under one
    /// lock acquisition -- the batch-end step that makes cache evolution
    /// schedule-independent.  Touch events whose entry has since been
    /// evicted by a concurrent batch are skipped; insert events overwrite a
    /// concurrently interned twin in place (the payload bits are identical
    /// by the translation-invariance contract).  Returns entries evicted.
    /// Consumes `events` (payloads are moved out).
    std::uint64_t drain(std::vector<CacheEpochEvent>& events);

    /// Pressure eviction: drops LRU entries, capacity notwithstanding, until
    /// resident_bytes() <= target_bytes or the cache is empty.  Returns
    /// entries evicted.  This is the memory-budget enforcement path
    /// (PipelineOptions::memory_budget_bytes, ServiceOptions::
    /// memory_budget_bytes): entries go before an allocation has to fail.
    std::uint64_t evict_to_resident(std::size_t target_bytes);

    RouteCacheStats stats() const;
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    /// Approximate bytes held by the entries.
    std::size_t resident_bytes() const;
    void clear();

    /// Deterministic fingerprint of the full cache contents (entries MRU to
    /// LRU: hash, config, sink count, payload shape).  Equal strings <=>
    /// identical cache state; the serial-vs-parallel tests assert exactly
    /// that.
    std::string dump() const;

private:
    struct Entry {
        CacheKey key;
        CachedRoute payload;
        std::size_t bytes = 0;
    };
    using List = std::list<Entry>;

    /// Exact fingerprint payload of one interned configuration: every field
    /// a clean net's result bits depend on besides the net itself.
    struct Config {
        Technology tech;
        int widths_r = 0;
        bool wiresize = false;
        bool moment_check = false;
        std::size_t max_nodes_per_net = 0;
    };

    void lock_counting(std::unique_lock<std::mutex>& lk, bool* contended);
    List::iterator find_locked(std::uint64_t hash, std::uint32_t config,
                               const Net& net);
    /// Interns an insert event's payload (moved out) and enforces the
    /// capacity; returns entries evicted.
    std::uint64_t store_locked(CacheEpochEvent& ev);
    void pop_lru_locked();

    const std::size_t capacity_;  ///< entries; 0 = unbounded
    mutable std::mutex m_;        ///< guards everything below
    List lru_;                    ///< front = most recently used
    std::unordered_map<std::uint64_t, std::vector<List::iterator>> by_hash_;
    RouteCacheStats stats_;
    std::size_t resident_ = 0;    ///< approximate bytes held by entries
    std::vector<Config> configs_;
};

}  // namespace cong93

#endif  // CONG93_SESSION_ROUTE_CACHE_H
