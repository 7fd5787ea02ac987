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
// distinct entries (see session/shard.h for the sig:: helpers).
//
// Since PR 8 the cache is CONCURRENT and LOCK-STRIPED: the signature hash
// selects one of `shard_count()` independently mutexed strict-LRU shards
// (session/shard.h), so parallel workers and concurrent route_batch calls
// from many sessions probe and fill one shared cache without a global lock.
// Determinism is preserved by the epoch-drain rule: during a batch's
// parallel region probes are pure reads of the batch-start state, and every
// LRU touch/insert is deferred as a CacheEpochEvent applied per shard in
// net-index order at batch end (drain()).  Cache contents are therefore
// byte-identical for 1 vs N threads, and output bytes are identical for any
// shard count (every serve is bit-identical to routing the net).
//
// Only *clean* results are interned: status == ok and an empty diagnostic
// (validation notes and fault events may embed absolute coordinates and are
// per-net anyway).  The batch driver (batch/pipeline.cpp) enforces a
// deterministic single-flight rule on top, now executed *inside* the
// parallel region: the first arrival of a signature routes, later arrivals
// park on the shard's flight table and are served the published payload.
//
// Eviction is strict LRU per shard; a total entry capacity is split across
// the shards (shard counts are clamped so no shard gets capacity zero).
#ifndef CONG93_SESSION_ROUTE_CACHE_H
#define CONG93_SESSION_ROUTE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "session/shard.h"

namespace cong93 {

/// Cumulative probe telemetry aggregated over the shards (monotone over the
/// cache's lifetime; per-batch deltas are reported in PipelineStats).
struct RouteCacheStats {
    std::uint64_t hits = 0;        ///< probes/finds that returned an entry
    std::uint64_t misses = 0;      ///< probes/finds that returned nothing
    std::uint64_t insertions = 0;  ///< new entries stored
    std::uint64_t evictions = 0;   ///< entries dropped by the LRU bound
    std::uint64_t contended = 0;   ///< shard-lock acquisitions that waited
};

class RouteCache {
public:
    /// `capacity` bounds the total entry count (strict LRU per shard; 0
    /// means unbounded).  `shards` is rounded up to a power of two and, when
    /// a capacity is set, halved until every shard owns at least one entry;
    /// the default of one shard preserves the PR-7 single-map strict-LRU
    /// semantics exactly.  Shard count never changes output bytes -- only
    /// contention and (under a capacity) the eviction pattern.
    explicit RouteCache(std::size_t capacity = 0, std::size_t shards = 1);

    /// The shard count the service facade sizes a shared cache with:
    /// next-pow2(threads x 4), so at full fan-out the expected load per
    /// shard lock stays well under one.
    static std::size_t shards_for_threads(int threads);

    /// Interns the exact (technology, options) pair this cache consultation
    /// runs under and returns its fingerprint id.  Two
    /// calls return the same id iff every result-bit-relevant field compares
    /// bit-identical, so entries written under one configuration can never
    /// serve a lookup made under another.  Thread-safe.
    std::uint32_t config_of(const Technology& tech, const PipelineOptions& opts);

    /// Canonical signature of `net` under config id `config`.
    static CacheKey key_of(const Net& net, std::uint32_t config)
    {
        return sig::key_of(net, config);
    }

    /// Signature hash computed straight off the net -- the allocation-free
    /// hot path (equal to key_of(net, config).hash).
    static std::uint64_t hash_of(const Net& net, std::uint32_t config)
    {
        return sig::hash_of(net, config);
    }

    /// Exact signature equality (config, then sink sequence, caps compared
    /// by bit pattern).  The hash is a bucket, not the identity.
    static bool same_key(const CacheKey& a, const CacheKey& b)
    {
        return sig::same_key(a, b);
    }

    std::size_t shard_count() const { return shards_.size(); }
    std::size_t shard_index(std::uint64_t hash) const
    {
        return static_cast<std::size_t>(hash) & mask_;
    }
    CacheShard& shard(std::size_t i) { return shards_[i]; }

    /// Touching lookup on the owning shard (single-threaded convenience
    /// path; the batch driver uses shard().probe() + drain() instead).  On a
    /// hit, the entry becomes most-recently-used and the stored result is
    /// returned (diag cleared, net_index/net_seed zero -- callers re-stamp
    /// per served net); the pointer stays valid until the entry is evicted
    /// or overwritten.
    const NetRouteResult* find(const CacheKey& key)
    {
        return shards_[shard_index(key.hash)].find(key);
    }

    /// Immediate insert on the owning shard.  `result` must be clean
    /// (status ok, empty diagnostic).  Re-inserting an existing signature
    /// overwrites in place.  Returns how many entries this call evicted.
    std::uint64_t insert(const CacheKey& key, const NetRouteResult& result)
    {
        return shards_[shard_index(key.hash)].insert(key, result);
    }

    /// Epoch drain: buckets `events` by owning shard, sorts each bucket by
    /// net index, and applies them serially per shard -- the batch-end step
    /// that makes cache evolution schedule-independent.  Returns the total
    /// entries evicted.  Consumes `events` (payloads are moved out).
    std::uint64_t drain(std::vector<CacheEpochEvent>& events);

    /// Pressure eviction: drops LRU entries (round-robin over the shards,
    /// largest-resident shard first each round) until resident_bytes() <=
    /// target_bytes or the cache is empty.  Returns entries evicted.  This
    /// is the memory-budget enforcement path (PipelineOptions::
    /// memory_budget_bytes, ServiceOptions::memory_budget_bytes): entries go
    /// before an allocation has to fail.
    std::uint64_t evict_to_resident(std::size_t target_bytes);

    RouteCacheStats stats() const;  ///< aggregated over shards, by value
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    std::size_t resident_bytes() const;
    void clear();

    /// Deterministic fingerprint of the full cache contents (shards in
    /// index order, entries MRU to LRU).  Equal strings <=> identical cache
    /// state; the serial-vs-parallel tests assert exactly that.
    std::string dump() const;

private:
    /// Exact fingerprint payload of one interned configuration: every field
    /// a clean net's result bits depend on besides the net itself.
    struct Config {
        Technology tech;
        int widths_r = 0;
        bool wiresize = false;
        bool moment_check = false;
        int rc_sections_per_edge = 0;
        std::size_t max_nodes_per_net = 0;
    };

    std::size_t capacity_;
    std::size_t mask_ = 0;
    std::vector<CacheShard> shards_;  ///< sized once; never reallocated
    mutable std::mutex config_mutex_;
    std::vector<Config> configs_;
};

}  // namespace cong93

#endif  // CONG93_SESSION_ROUTE_CACHE_H
