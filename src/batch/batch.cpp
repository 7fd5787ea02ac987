#include "batch/batch.h"

#include "batch/lifecycle.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

namespace cong93 {

int default_thread_count()
{
    if (const char* env = std::getenv("CONG93_THREADS")) {
        try {
            const int n = std::stoi(env);
            return n <= 0 ? 1 : n;
        } catch (...) {
            // fall through to hardware_concurrency
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

std::uint64_t net_seed(std::uint64_t base, std::size_t index)
{
    // splitmix64: decorrelates adjacent indices so per-net RNG streams are
    // independent regardless of how the batch is scheduled.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0) threads = default_thread_count();
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

namespace {

/// Shared rethrow policy: one failure rethrows the original exception;
/// several are aggregated into a BatchError.  Capture order depends on
/// scheduling, so the messages are sorted to keep the composed text
/// deterministic for a given set of failures.
[[noreturn]] void rethrow_captured(std::vector<std::exception_ptr> errors)
{
    if (errors.size() == 1) std::rethrow_exception(errors.front());

    std::vector<std::string> messages;
    messages.reserve(errors.size());
    for (const std::exception_ptr& e : errors) {
        try {
            std::rethrow_exception(e);
        } catch (const std::exception& ex) {
            messages.emplace_back(ex.what());
        } catch (...) {
            messages.emplace_back("unknown exception");
        }
    }
    std::sort(messages.begin(), messages.end());
    std::string what = std::to_string(errors.size()) + " worker exceptions:";
    for (const std::string& m : messages) what += "\n  " + m;
    throw BatchError(what, std::move(errors));
}

}  // namespace

void TaskGroup::wait()
{
    std::vector<std::exception_ptr> errors;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return in_flight_ == 0; });
        errors.swap(errors_);
    }
    if (!errors.empty()) rethrow_captured(std::move(errors));
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(group.mutex_);
        ++group.in_flight_;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push(Task{std::move(job), &group});
    }
    work_cv_.notify_one();
}

void ThreadPool::worker_loop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop_ set and drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        std::exception_ptr error;
        try {
            task.fn();
        } catch (...) {
            // Capture every failure; the owning waiter rethrows it
            // (aggregated) on its own thread.  Later jobs still run.
            error = std::current_exception();
        }
        // Completion and errors route to the group.  The notify happens
        // while the group mutex is held: the waiter owns the (typically
        // stack-allocated) group and may destroy it the moment wait()
        // observes in_flight_ == 0, so signalling after unlock could touch a
        // dead condition variable.  The error is moved, not copied: this
        // thread keeps no reference that could outlive the waiter's use of
        // the exception and free it here.
        std::unique_lock<std::mutex> lock(task.group->mutex_);
        if (error) task.group->errors_.push_back(std::move(error));
        if (--task.group->in_flight_ == 0) task.group->done_cv_.notify_all();
    }
}

void parallel_for_index(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t)>& fn)
{
    parallel_for_slots(pool, n, [&fn](std::size_t i, int) { fn(i); });
}

void parallel_for_slots(ThreadPool& pool, std::size_t n,
                        const std::function<void(std::size_t, int)>& fn,
                        std::size_t chunk, const CancelToken* cancel,
                        const std::function<void()>& overlap)
{
    if (n == 0) {
        if (overlap) overlap();
        return;
    }
    if (chunk == 0) chunk = 1;
    // One long-lived job per worker slot; slots pull chunks off the shared
    // counter until the range is drained (or a worker threw, which jumps
    // the counter past n so the other slots wind down).
    const auto next = std::make_shared<std::atomic<std::size_t>>(0);
    const int slots = pool.thread_count();
    // A private TaskGroup scopes this call's jobs and failures, so several
    // parallel_for_slots calls can share one pool concurrently (the
    // SessionService dispatch path) without waiting on -- or stealing
    // exceptions from -- each other's work.
    TaskGroup group;
    for (int s = 0; s < slots; ++s) {
        pool.submit(group, [&fn, n, chunk, next, s, cancel] {
            for (;;) {
                if (cancel != nullptr && cancel->cancelled()) return;
                const std::size_t begin = next->fetch_add(chunk);
                if (begin >= n) return;
                const std::size_t end = std::min(n, begin + chunk);
                for (std::size_t i = begin; i < end; ++i) {
                    try {
                        fn(i, s);
                    } catch (...) {
                        next->store(n);
                        throw;  // captured by the group, rethrown in wait()
                    }
                }
            }
        });
    }
    if (overlap) {
        try {
            overlap();
        } catch (...) {
            // The slot jobs reference this frame: drain them first.
            group.wait();
            throw;
        }
    }
    group.wait();
}

}  // namespace cong93
