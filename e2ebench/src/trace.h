// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, request id, allocations).  Spans are
// recorded by the benchmark around its own calls into the program's layers,
// on one thread, kept in memory and written out when the run ends.  A span's
// self time is its duration minus the durations of its direct children
// (children nest inside their parent on the one recording thread, so their
// intervals never overlap).
#ifndef E2E_TRACE_H
#define E2E_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
public:
    struct Span {
        const char* name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;
        std::uint64_t req = 0;
        std::uint64_t allocs = 0;  ///< heap allocations inside the span
    };

    /// Per-name sums over every closed span.
    struct Totals {
        double total_s = 0.0;
        double self_s = 0.0;
        std::uint64_t count = 0;
        std::uint64_t allocs = 0;
        std::uint64_t self_allocs = 0;
    };

    Tracer();

    std::int32_t open(const char* name, std::uint64_t req);
    void close(std::int32_t id);

    /// RAII span; a null tracer makes it a no-op, so one code path serves
    /// the traced and the untraced call.
    class Scope {
    public:
        Scope(Tracer* t, const char* name, std::uint64_t req)
            : t_(t), id_(t != nullptr ? t->open(name, req) : -1)
        {
        }
        ~Scope()
        {
            if (t_ != nullptr) t_->close(id_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* t_;
        std::int32_t id_;
    };

    std::map<std::string, Totals> totals() const;
    const std::vector<Span>& spans() const { return spans_; }

    /// Tab-separated dump, one span per line:
    /// id, parent, req, name, start_ns, end_ns, allocs.
    void write_tsv(const std::string& path) const;

private:
    std::int64_t now_ns() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

}  // namespace e2e

#endif  // E2E_TRACE_H
