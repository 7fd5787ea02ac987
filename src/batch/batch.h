// Parallel batch driver for per-net work (thread pool + deterministic
// fan-out/fan-in helpers).
//
// Nets are independent: topology construction, wiresizing and simulation of
// one net never read another net's state, so a batch of nets parallelizes
// trivially.  Determinism is preserved by construction:
//   * work is addressed by index -- worker threads write only their own
//     output slot, and reductions happen serially in index order after the
//     barrier, so parallel and serial runs produce byte-identical results;
//   * any per-net randomness must be seeded from net_seed(base, index)
//     (a splitmix64 hash), never from a shared RNG whose consumption order
//     would depend on scheduling.
//
// Scheduling is chunked-dynamic: parallel_for_slots submits one long-lived
// job per worker slot and the slots pull index chunks off a shared atomic
// counter, so skewed per-net costs cannot idle workers the way a static
// partition would.  The slot id is passed to the callback, which lets a
// caller keep one reusable Workspace per slot (see batch/workspace.h).
//
// Every job runs under a TaskGroup, the one completion path.  Exceptions
// thrown by workers are all captured, remaining work is cancelled, and they
// are rethrown on the submitting thread from TaskGroup::wait() / the
// parallel_for helpers -- a throwing job never terminates the process.  A
// single failure rethrows the original exception; multiple failures rethrow
// a BatchError aggregating every captured cause (messages sorted, so the
// composed text is deterministic for a given failure set).
//
// Thread count resolution: the CONG93_THREADS environment variable when set
// (<= 0 or 1 forces serial execution), else std::thread::hardware_concurrency.
#ifndef CONG93_BATCH_BATCH_H
#define CONG93_BATCH_BATCH_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cong93 {

class CancelToken;

/// Aggregate of every worker exception captured during one wait cycle.
/// what() joins the causes' messages in sorted order; causes() exposes the
/// original exception_ptrs for callers that need the concrete types.
class BatchError : public std::runtime_error {
public:
    BatchError(const std::string& what_arg, std::vector<std::exception_ptr> causes)
        : std::runtime_error(what_arg), causes_(std::move(causes))
    {
    }

    const std::vector<std::exception_ptr>& causes() const { return causes_; }

private:
    std::vector<std::exception_ptr> causes_;
};

/// Threads to use for batch work (see header comment for resolution order).
int default_thread_count();

/// Deterministic per-item RNG seed, independent of execution order.
std::uint64_t net_seed(std::uint64_t base, std::size_t index);

class ThreadPool;

/// Completion scope for one logical group of jobs on a shared pool.  Several
/// callers (e.g. concurrent route_batch requests dispatched by a
/// SessionService) can each submit their own group to ONE pool and wait only
/// for their own jobs; exceptions are captured per group, so one request's
/// failure is rethrown to that request's caller and nobody else.  The group
/// must outlive its jobs -- submit(group, ...) then group.wait() before the
/// group leaves scope.
class TaskGroup {
public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Blocks until every job submitted under this group has finished.  One
    /// captured exception is rethrown as-is; several are aggregated into a
    /// BatchError (messages sorted, deterministic for a given failure set).
    void wait();

private:
    friend class ThreadPool;

    std::mutex mutex_;
    std::condition_variable done_cv_;
    std::size_t in_flight_ = 0;
    std::vector<std::exception_ptr> errors_;
};

/// Fixed-size worker pool.  Jobs may be submitted from any thread, each
/// under a TaskGroup; the destructor drains the queue before joining.
class ThreadPool {
public:
    /// threads <= 0 resolves to default_thread_count().
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int thread_count() const { return static_cast<int>(workers_.size()); }

    /// Submits a job under `group`: its completion and any exception are
    /// tracked by the group (group.wait()).  This is the multiplexing
    /// primitive that lets concurrent callers share one pool without
    /// stealing each other's failures.
    void submit(TaskGroup& group, std::function<void()> job);

private:
    struct Task {
        std::function<void()> fn;
        TaskGroup* group = nullptr;  ///< never null
    };

    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<Task> queue_;
    std::mutex mutex_;
    std::condition_variable work_cv_;  // signalled on submit / stop
    bool stop_ = false;
};

/// Runs fn(i) for every i in [0, n) on the pool and waits for completion.
/// fn must only write state owned by index i.  Worker exceptions are
/// rethrown on the calling thread (aggregated into a BatchError when more
/// than one worker threw).
void parallel_for_index(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t)>& fn);

/// Chunked dynamic scheduling with worker-slot identity: runs
/// fn(index, slot) for every index in [0, n), where slot is in
/// [0, pool.thread_count()) and is stable for the lifetime of one call --
/// the hook for per-thread workspaces.  Indices are handed out in chunks of
/// `chunk` (>= 1) off an atomic counter; determinism still requires that fn
/// writes only state owned by `index` (or by `slot`).  Worker exceptions
/// are rethrown on the calling thread (a BatchError when several slots
/// threw); once a worker throws, slots stop pulling new chunks.
///
/// When `cancel` is non-null, slots also stop pulling new chunks once the
/// token reports cancelled -- in-flight indices finish (a chunk is never
/// abandoned half-written), but no further work starts, so a cancelled
/// request releases the shared pool promptly.  The caller is responsible
/// for marking unvisited indices; exceptions already captured before the
/// cancellation still aggregate through the group as usual.
///
/// When `overlap` is set it runs once on the calling thread after the slot
/// jobs are submitted and before the barrier, so the caller can do serial
/// work (route_stream parses its next chunk) while the pool drains the
/// range.  It must not touch state the slots write.  If it throws, the
/// slots are still waited for before the exception propagates.
void parallel_for_slots(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t, int)>& fn,
                        std::size_t chunk = 1,
                        const CancelToken* cancel = nullptr,
                        const std::function<void()>& overlap = {});

/// Maps fn over [0, n), returning results in index order.  With threads == 1
/// (or n < 2) this runs serially on the calling thread; output is identical
/// either way.  R must be default-constructible.
template <typename R, typename Fn>
std::vector<R> batch_map(std::size_t n, Fn&& fn, int threads = 0)
{
    if (threads <= 0) threads = default_thread_count();
    std::vector<R> out(n);
    if (threads <= 1 || n < 2) {
        for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
        return out;
    }
    ThreadPool pool(threads);
    parallel_for_index(pool, n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

}  // namespace cong93

#endif  // CONG93_BATCH_BATCH_H
