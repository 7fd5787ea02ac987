#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace e2e {

double now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return n;
    }
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Steal and total jiffies of the aggregate `cpu` line of /proc/stat.
bool read_cpu_ticks(std::uint64_t& steal, std::uint64_t& total)
{
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return false;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                                &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (got != 8) return false;
    steal = v[7];
    total = 0;
    for (const unsigned long long x : v) total += x;
    return true;
}

}  // namespace

StealMeter::StealMeter() { read_cpu_ticks(steal_, total_); }

double StealMeter::share() const
{
    std::uint64_t steal = 0, total = 0;
    if (!read_cpu_ticks(steal, total) || total <= total_) return 0.0;
    return static_cast<double>(steal - steal_) / static_cast<double>(total - total_);
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Spread spread_of(const std::vector<double>& v)
{
    Spread s;
    s.n = v.size();
    s.q1 = quantile(v, 0.25);
    s.median = quantile(v, 0.5);
    s.q3 = quantile(v, 0.75);
    return s;
}

void LatencyHistogram::add(double us)
{
    // x counts units of 2^-8 us; bucket = 256 * octave + linear sub-bucket.
    const double x = std::max(us, 0.0) * 256.0;
    std::size_t b = 0;
    if (x >= 1.0) {
        int e = 0;
        const double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
        const int octave = std::min(e - 1, kOctaves - 1);
        const int sub = std::min(static_cast<int>((m * 2.0 - 1.0) * kSub), kSub - 1);
        b = static_cast<std::size_t>(octave * kSub + sub);
    }
    ++counts_[b];
    ++n_;
}

void LatencyHistogram::merge(const LatencyHistogram& o)
{
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
}

double LatencyHistogram::lower_edge(std::size_t bucket)
{
    const auto octave = static_cast<int>(bucket / kSub);
    const auto sub = static_cast<double>(bucket % kSub);
    return std::ldexp(1.0 + sub / kSub, octave) / 256.0;
}

double LatencyHistogram::quantile(double q) const
{
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        if (static_cast<double>(below + counts_[i]) > rank) {
            const double frac = (rank - static_cast<double>(below) + 0.5) /
                                static_cast<double>(counts_[i]);
            const double lo = lower_edge(i);
            const double hi = i + 1 < counts_.size() ? lower_edge(i + 1) : lo;
            return lo + (hi - lo) * std::min(frac, 1.0);
        }
        below += counts_[i];
    }
    return lower_edge(counts_.size() - 1);
}

std::string LatencyHistogram::summary() const
{
    const auto rank99 = static_cast<std::uint64_t>(0.99 * static_cast<double>(n_ == 0 ? 0 : n_ - 1));
    Json o;
    o.integer("n", n_)
        .num("p50", quantile(0.5))
        .num("p90", quantile(0.9))
        .num("p95", quantile(0.95))
        .num("p99", quantile(0.99))
        .integer("beyond_p99", n_ == 0 ? 0 : n_ - 1 - rank99);
    return o.done();
}

void require(bool ok, const std::string& what)
{
    if (!ok) throw GateFailure(what);
}

void Json::key(const std::string& k)
{
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": ";
}

Json& Json::num(const std::string& k, double v)
{
    key(k);
    if (!std::isfinite(v)) {
        body_ += "null";
        return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    body_ += buf;
    return *this;
}

Json& Json::integer(const std::string& k, std::uint64_t v)
{
    key(k);
    body_ += std::to_string(v);
    return *this;
}

Json& Json::str(const std::string& k, const std::string& v)
{
    key(k);
    body_ += '"';
    for (const char c : v) {
        if (c == '"' || c == '\\') body_ += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        body_ += c;
    }
    body_ += '"';
    return *this;
}

Json& Json::boolean(const std::string& k, bool v)
{
    key(k);
    body_ += v ? "true" : "false";
    return *this;
}

Json& Json::raw(const std::string& k, const std::string& json)
{
    key(k);
    body_ += json;
    return *this;
}

Json& Json::spread(const std::string& k, const Spread& s)
{
    Json o;
    o.integer("n", s.n).num("q1", s.q1).num("median", s.median).num("q3", s.q3);
    return raw(k, o.done());
}

}  // namespace e2e
