// Request-lifecycle primitives: cancellation and deadlines.
//
// A CancelToken is a client-side kill switch shared between the caller and
// the pipeline: route_batch checks it at stage boundaries inside route_net
// and parallel_for_slots checks it between chunk pulls, so a cancelled
// request stops pulling work off the shared pool instead of running its
// batch to completion.  A Deadline is a wall-clock budget for one request;
// a net that observes an expired deadline degrades (skips ladder work and
// the wiresize tail) rather than blocking the pool.
//
// Determinism contract: wall-clock deadline checks are inherently
// schedule-dependent, so wall-triggered degradations are surfaced through
// the '#'-prefixed telemetry channel (PipelineStats::deadline_wall_degraded)
// and excluded from the byte-identity contract -- exactly like the cache
// lock-contention counters.  Bit-reproducible degradation paths come from
// the virtual clock in batch/fault_inject.h (per-stage injected costs,
// pure functions of the net index), which tests and CI use instead.
#ifndef CONG93_BATCH_LIFECYCLE_H
#define CONG93_BATCH_LIFECYCLE_H

#include <atomic>
#include <chrono>

namespace cong93 {

/// Cooperative cancellation flag.  cancel() may be called from any thread
/// (typically a client or watchdog); workers poll cancelled() at chunk and
/// stage boundaries.  Relaxed ordering suffices: the flag only gates
/// whether more work starts, and cancelled nets are fully reset to a
/// deterministic cancelled result in a post-pass, so no data ordering
/// hangs off the load.
class CancelToken {
public:
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

    bool cancelled() const noexcept
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<bool> cancelled_{false};
};

/// Wall-clock budget for one request.  Default-constructed deadlines are
/// inert (never expire); after_ms() arms one relative to now.
class Deadline {
public:
    using clock = std::chrono::steady_clock;

    Deadline() = default;

    static Deadline none() { return Deadline{}; }

    static Deadline after_ms(double ms)
    {
        Deadline d;
        if (ms > 0.0) {
            d.active_ = true;
            d.at_ = clock::now() +
                    std::chrono::duration_cast<clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
        }
        return d;
    }

    bool active() const noexcept { return active_; }

    bool expired() const noexcept
    {
        return active_ && clock::now() >= at_;
    }

private:
    bool active_ = false;
    clock::time_point at_{};
};

}  // namespace cong93

#endif  // CONG93_BATCH_LIFECYCLE_H
