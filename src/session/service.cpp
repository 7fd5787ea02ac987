#include "session/service.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "workload/stream.h"

namespace cong93 {

SessionService::Admission::Admission(SessionService& svc, const char* op)
    : svc_(svc)
{
    std::lock_guard<std::mutex> lk(svc_.mutex_);
    if (svc_.opts_.queue_cap != 0 && svc_.in_flight_ >= svc_.opts_.queue_cap) {
        ++svc_.stats_.rejected_overload;
        throw OverloadError(std::string("service overloaded: ") + op +
                            " rejected, " +
                            std::to_string(svc_.in_flight_) +
                            " requests in flight >= queue cap " +
                            std::to_string(svc_.opts_.queue_cap));
    }
    ++svc_.in_flight_;
}

SessionService::Admission::~Admission()
{
    std::lock_guard<std::mutex> lk(svc_.mutex_);
    --svc_.in_flight_;
}

SessionService::SessionService(Technology tech, ServiceOptions opts)
    : tech_(std::move(tech)),
      opts_(std::move(opts)),
      cache_(opts_.cache_capacity),
      pool_(opts_.threads)
{
}

SessionId SessionService::open() { return open(opts_.session); }

SessionId SessionService::open(SessionOptions opts)
{
    opts.shared_cache = &cache_;
    opts.pipeline.pool = &pool_;
    // Worker-slot count must cover the pool width (route_batch sizes its
    // workspaces off max(threads, pool threads) either way; raising threads
    // here just keeps the session's stats header honest).
    opts.pipeline.threads = std::max(opts.pipeline.threads, pool_.thread_count());
    std::lock_guard<std::mutex> lk(mutex_);
    slots_.push_back(std::make_unique<Slot>(tech_, std::move(opts)));
    return slots_.size() - 1;
}

SessionService::Slot& SessionService::slot(SessionId id)
{
    std::lock_guard<std::mutex> lk(mutex_);
    if (id >= slots_.size())
        throw std::out_of_range("SessionService: no such session id");
    return *slots_[id];
}

void SessionService::count_batch(const PipelineStats& stats)
{
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.batches;
    stats_.cache_hits += stats.cache_hits;
    stats_.cache_shared += stats.cache_shared;
    stats_.cache_evictions += stats.cache_evictions;
    stats_.cache_contended += stats.cache_shard_contention;
}

std::size_t SessionService::resident_bytes()
{
    std::size_t n = cache_.resident_bytes();
    std::size_t count;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        count = slots_.size();
    }
    // Slot addresses are stable (unique_ptr) and sessions only open, never
    // close, so iterating up to a snapshot count without mutex_ is safe.
    // Each slot mutex is taken alone -- never nested under mutex_ or another
    // slot's -- which keeps the service's lock order intact.
    for (std::size_t i = 0; i < count; ++i) {
        Slot& s = slot(i);
        std::lock_guard<std::mutex> lk(s.m);
        n += s.session.resident_bytes();
    }
    return n;
}

void SessionService::enforce_budget()
{
    if (opts_.memory_budget_bytes == 0) return;
    const std::size_t resident = resident_bytes();
    if (resident <= opts_.memory_budget_bytes) return;
    // Sessions keep their arenas and nets, so the cache is the evictable
    // pool: bring its resident bytes down by the overage (saturating at
    // zero, i.e. a budget smaller than the sessions alone empties the cache
    // and stops there).
    const std::size_t overage = resident - opts_.memory_budget_bytes;
    const std::size_t cache_now = cache_.resident_bytes();
    const std::size_t target = cache_now > overage ? cache_now - overage : 0;
    const std::uint64_t evicted = cache_.evict_to_resident(target);
    if (evicted != 0) {
        std::lock_guard<std::mutex> lk(mutex_);
        stats_.pressure_evictions += evicted;
    }
}

std::vector<NetId> SessionService::add_batch(SessionId id,
                                             const std::vector<Net>& nets,
                                             PipelineStats* stats)
{
    Admission ticket(*this, "add_batch");
    Slot& s = slot(id);
    PipelineStats local;
    PipelineStats& ps = stats != nullptr ? *stats : local;
    std::vector<NetId> ids;
    {
        std::lock_guard<std::mutex> lk(s.m);
        ids = s.session.add_batch(nets, &ps);
    }
    count_batch(ps);
    enforce_budget();
    return ids;
}

std::vector<NetId> SessionService::add_batch(SessionId id, NetSource& source,
                                             std::size_t chunk_nets,
                                             PipelineStats* stats)
{
    return admit_chunks(source, chunk_nets, stats,
                        [&](const std::vector<Net>& nets, PipelineStats* cs) {
                            return add_batch(id, nets, cs);
                        });
}

NetId SessionService::add(SessionId id, Net net)
{
    Admission ticket(*this, "add");
    Slot& s = slot(id);
    NetId nid;
    {
        std::lock_guard<std::mutex> lk(s.m);
        nid = s.session.add(std::move(net));
    }
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++stats_.adds;
    }
    enforce_budget();
    return nid;
}

EcoOutcome SessionService::apply(SessionId id, NetId net, const EcoDelta& delta)
{
    Admission ticket(*this, "apply");
    Slot& s = slot(id);
    EcoOutcome o;
    {
        std::lock_guard<std::mutex> lk(s.m);
        o = s.session.apply(net, delta);
    }
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++stats_.applies;
    }
    enforce_budget();
    return o;
}

NetRouteResult SessionService::result(SessionId id, NetId net)
{
    Slot& s = slot(id);
    std::lock_guard<std::mutex> lk(s.m);
    return s.session.result(net);
}

std::size_t SessionService::sessions() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return slots_.size();
}

ServiceStats SessionService::stats() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return stats_;
}

}  // namespace cong93
