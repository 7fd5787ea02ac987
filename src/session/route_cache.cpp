#include "session/route_cache.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace cong93 {

namespace sig {

namespace {

/// 64-bit FNV-1a over explicitly fed words; the only consumer of the
/// float-quantized caps (equality always re-checks the exact doubles).
struct Fnv64 {
    std::uint64_t h = 1469598103934665603ull;
    void mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

std::uint64_t cap_bits(double cap)
{
    return std::bit_cast<std::uint64_t>(cap);
}

}  // namespace

std::uint64_t hash_of(const Net& net, std::uint32_t config)
{
    Fnv64 f;
    f.mix(config);
    f.mix(net.sinks.size());
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        const Coord dx = static_cast<Coord>(net.sinks[i].x - net.source.x);
        const Coord dy = static_cast<Coord>(net.sinks[i].y - net.source.y);
        f.mix(static_cast<std::uint32_t>(static_cast<std::int32_t>(dx)));
        f.mix(static_cast<std::uint32_t>(static_cast<std::int32_t>(dy)));
        // Cap quantized to float here only: sub-float cap differences share
        // a bucket and are separated by the exact compares below.
        f.mix(std::bit_cast<std::uint32_t>(
            static_cast<float>(net.sink_cap(i))));
    }
    return f.h;
}

bool key_matches_net(const CacheKey& key, const Net& net, std::uint32_t config)
{
    if (key.config != config || key.sinks.size() != net.sinks.size())
        return false;
    for (std::size_t i = 0; i < key.sinks.size(); ++i) {
        const CacheSink& s = key.sinks[i];
        if (s.dx != static_cast<Coord>(net.sinks[i].x - net.source.x) ||
            s.dy != static_cast<Coord>(net.sinks[i].y - net.source.y) ||
            cap_bits(s.cap) != cap_bits(net.sink_cap(i)))
            return false;
    }
    return true;
}

bool nets_equivalent(const Net& a, const Net& b)
{
    if (a.sinks.size() != b.sinks.size()) return false;
    for (std::size_t i = 0; i < a.sinks.size(); ++i) {
        if (static_cast<Coord>(a.sinks[i].x - a.source.x) !=
                static_cast<Coord>(b.sinks[i].x - b.source.x) ||
            static_cast<Coord>(a.sinks[i].y - a.source.y) !=
                static_cast<Coord>(b.sinks[i].y - b.source.y) ||
            cap_bits(a.sink_cap(i)) != cap_bits(b.sink_cap(i)))
            return false;
    }
    return true;
}

CacheKey key_of(const Net& net, std::uint32_t config)
{
    CacheKey key;
    key.config = config;
    key.sinks.reserve(net.sinks.size());
    for (std::size_t i = 0; i < net.sinks.size(); ++i)
        key.sinks.push_back(
            CacheSink{static_cast<Coord>(net.sinks[i].x - net.source.x),
                      static_cast<Coord>(net.sinks[i].y - net.source.y),
                      net.sink_cap(i)});
    key.hash = hash_of(net, config);
    return key;
}

}  // namespace sig

namespace {

bool tech_equal(const Technology& a, const Technology& b)
{
    // Bit-level equality of every numeric parameter (name is cosmetic and
    // feeds no result bits; NaN-corrupted copies never reach the cache
    // because fault-injected batches bypass it).
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return bits(a.driver_resistance_ohm) == bits(b.driver_resistance_ohm) &&
           bits(a.unit_wire_resistance_ohm) == bits(b.unit_wire_resistance_ohm) &&
           bits(a.unit_wire_capacitance_f) == bits(b.unit_wire_capacitance_f) &&
           bits(a.sink_load_f) == bits(b.sink_load_f) &&
           bits(a.unit_wire_inductance_h) == bits(b.unit_wire_inductance_h) &&
           bits(a.grid_pitch_um) == bits(b.grid_pitch_um) &&
           bits(a.base_width_um) == bits(b.base_width_um);
}

/// Approximate resident footprint of one interned entry.
std::size_t entry_bytes(const CacheKey& key, const NetRouteResult& payload)
{
    // 64 approximates the list node + hash-chain slot overhead per entry.
    return 64 + sizeof(CacheKey) + key.sinks.capacity() * sizeof(CacheSink) +
           sizeof(NetRouteResult) + payload.assignment.size() * sizeof(int);
}

}  // namespace

CachedRoute make_cached_route(const NetRouteResult& result)
{
    auto p = std::make_shared<NetRouteResult>(result);
    // Canonicalize the interned copy: the per-net identity fields are
    // re-stamped by whoever serves it.
    p->diag = NetDiagnostic{};
    return p;
}

RouteCache::RouteCache(std::size_t capacity) : capacity_(capacity) {}

std::uint32_t RouteCache::config_of(const Technology& tech,
                                    const PipelineOptions& opts)
{
    Config c;
    c.tech = tech;
    c.widths_r = opts.widths_r;
    c.wiresize = opts.wiresize;
    c.moment_check = opts.moment_check;
    c.max_nodes_per_net = opts.max_nodes_per_net;

    std::lock_guard<std::mutex> lk(m_);
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        const Config& o = configs_[i];
        if (tech_equal(o.tech, c.tech) && o.widths_r == c.widths_r &&
            o.wiresize == c.wiresize && o.moment_check == c.moment_check &&
            o.max_nodes_per_net == c.max_nodes_per_net)
            return static_cast<std::uint32_t>(i);
    }
    configs_.push_back(std::move(c));
    return static_cast<std::uint32_t>(configs_.size() - 1);
}

void RouteCache::lock_counting(std::unique_lock<std::mutex>& lk,
                               bool* contended)
{
    if (lk.try_lock()) return;
    lk.lock();
    ++stats_.contended;
    if (contended != nullptr) *contended = true;
}

RouteCache::List::iterator RouteCache::find_locked(std::uint64_t hash,
                                                   std::uint32_t config,
                                                   const Net& net)
{
    const auto it = by_hash_.find(hash);
    if (it == by_hash_.end()) return lru_.end();
    for (const auto& entry_it : it->second)
        if (sig::key_matches_net(entry_it->key, net, config)) return entry_it;
    return lru_.end();
}

RouteCache::ProbeResult RouteCache::probe(std::uint64_t hash,
                                          std::uint32_t config, const Net& net)
{
    ProbeResult pr;
    std::unique_lock<std::mutex> lk(m_, std::defer_lock);
    lock_counting(lk, &pr.contended);
    const auto e = find_locked(hash, config, net);
    if (e != lru_.end()) {
        pr.payload = e->payload;
        ++stats_.hits;
    } else {
        ++stats_.misses;
    }
    return pr;
}

std::uint64_t RouteCache::store_locked(CacheEpochEvent& ev)
{
    const auto e = find_locked(ev.hash, ev.config, *ev.net);
    if (e != lru_.end()) {
        // Overwrite in place (identical bits by the translation-invariance
        // contract; concurrent batches can race to intern one signature).
        resident_ -= e->bytes;
        e->payload = std::move(ev.payload);
        e->bytes = entry_bytes(e->key, *e->payload);
        resident_ += e->bytes;
        lru_.splice(lru_.begin(), lru_, e);
        return 0;
    }
    lru_.push_front(
        Entry{sig::key_of(*ev.net, ev.config), std::move(ev.payload), 0});
    Entry& stored = lru_.front();
    stored.bytes = entry_bytes(stored.key, *stored.payload);
    resident_ += stored.bytes;
    by_hash_[stored.key.hash].push_back(lru_.begin());
    ++stats_.insertions;
    std::uint64_t evicted = 0;
    for (; capacity_ != 0 && lru_.size() > capacity_; ++evicted) pop_lru_locked();
    return evicted;
}

void RouteCache::pop_lru_locked()
{
    const auto victim = std::prev(lru_.end());
    auto chain = by_hash_.find(victim->key.hash);
    std::erase(chain->second, victim);
    if (chain->second.empty()) by_hash_.erase(chain);
    resident_ -= victim->bytes;
    lru_.erase(victim);
    ++stats_.evictions;
}

std::uint64_t RouteCache::drain(std::vector<CacheEpochEvent>& events)
{
    if (events.empty()) return 0;
    // Net indices are unique across touch and insert events (a hit net
    // never joins a miss group, and a group inserts at its leader's index),
    // so the sort is a total order and the replay below is exactly the
    // serial net-order cache evolution.
    std::sort(events.begin(), events.end(),
              [](const CacheEpochEvent& a, const CacheEpochEvent& b) {
                  return a.net_index < b.net_index;
              });
    std::uint64_t evicted = 0;
    std::unique_lock<std::mutex> lk(m_, std::defer_lock);
    lock_counting(lk, nullptr);
    for (CacheEpochEvent& ev : events) {
        if (ev.insert) {
            evicted += store_locked(ev);
        } else {
            const auto e = find_locked(ev.hash, ev.config, *ev.net);
            if (e != lru_.end()) lru_.splice(lru_.begin(), lru_, e);
        }
    }
    events.clear();
    return evicted;
}

std::uint64_t RouteCache::evict_to_resident(std::size_t target_bytes)
{
    std::unique_lock<std::mutex> lk(m_, std::defer_lock);
    lock_counting(lk, nullptr);
    std::uint64_t evicted = 0;
    for (; resident_ > target_bytes && !lru_.empty(); ++evicted) pop_lru_locked();
    return evicted;
}

RouteCacheStats RouteCache::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    return stats_;
}

std::size_t RouteCache::size() const
{
    std::lock_guard<std::mutex> lk(m_);
    return lru_.size();
}

std::size_t RouteCache::resident_bytes() const
{
    std::lock_guard<std::mutex> lk(m_);
    return resident_;
}

void RouteCache::clear()
{
    std::lock_guard<std::mutex> lk(m_);
    lru_.clear();
    by_hash_.clear();
    resident_ = 0;
}

std::string RouteCache::dump() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::ostringstream os;
    os << std::hexfloat;
    for (const Entry& e : lru_) {
        os << std::hex << e.key.hash << std::dec << ' ' << e.key.config << ' '
           << e.key.sinks.size() << ' ' << e.payload->nodes << ' '
           << e.payload->segments << ' ' << e.payload->wirelength << ' '
           << e.payload->wiresized_delay_s << '\n';
    }
    return os.str();
}

}  // namespace cong93
