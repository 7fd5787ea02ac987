#include "trace.h"

#include <fstream>

#include "alloc.h"
#include "common.h"

namespace e2e {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now())
{
    spans_.reserve(1u << 16);
}

std::int64_t Tracer::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::int32_t Tracer::open(const char* name, std::uint64_t req)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.req = req;
    s.allocs = thread_allocs();
    s.start_ns = now_ns();
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    return id;
}

void Tracer::close(std::int32_t id)
{
    const std::int64_t t = now_ns();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = t;
    s.allocs = thread_allocs() - s.allocs;
    stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent < 0) continue;
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
        child_allocs[static_cast<std::size_t>(s.parent)] += s.allocs;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        Totals& t = out[s.name];
        const std::int64_t dur = s.end_ns - s.start_ns;
        t.total_s += static_cast<double>(dur) * 1e-9;
        t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
        t.count += 1;
        t.allocs += s.allocs;
        t.self_allocs += s.allocs - child_allocs[i];
    }
    return out;
}

void Tracer::write_tsv(const std::string& path) const
{
    std::ofstream out(path);
    require(static_cast<bool>(out), "cannot write trace file " + path);
    out << "id\tparent\treq\tname\tstart_ns\tend_ns\tallocs\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << i << '\t' << s.parent << '\t' << s.req << '\t' << s.name << '\t'
            << s.start_ns << '\t' << s.end_ns << '\t' << s.allocs << '\n';
    }
    require(static_cast<bool>(out), "short write to trace file " + path);
}

}  // namespace e2e
