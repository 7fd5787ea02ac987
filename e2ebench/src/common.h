// Shared plumbing of the end-to-end benchmark: deterministic RNG, clocks,
// order statistics, process probes, a minimal JSON writer and the result
// record every workload fills.
#ifndef E2E_COMMON_H
#define E2E_COMMON_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2e {

/// splitmix64: the benchmark's only randomness source, so the inputs a seed
/// produces do not depend on the standard library's distributions.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform integer in [lo, hi].
    std::int64_t range(std::int64_t lo, std::int64_t hi)
    {
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(next() % span);
    }
    /// Uniform double in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t s_;
};

/// Seconds on the steady clock.
double now_s();

/// Worker count of this process: the CPUs its affinity mask allows.
int nproc();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Share of all CPU time the hypervisor stole from this machine's vCPUs
/// between construction and share() (from /proc/stat; 0 when unreadable).
/// Stolen time is the main source of run-to-run noise on a shared virtual
/// host, so every timed metric scales its wall time by 1 - share() over the
/// same interval: the time the work takes on vCPUs that are not shared.
class StealMeter {
public:
    StealMeter();
    double share() const;

private:
    std::uint64_t steal_ = 0, total_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);

/// Quartiles of a sample, the form every timed metric reports its spread in.
struct Spread {
    std::size_t n = 0;
    double q1 = 0.0, median = 0.0, q3 = 0.0;
};
Spread spread_of(const std::vector<double>& v);

/// Fixed-size latency histogram: 256 log-linear buckets per power of two
/// over [2^-8, 2^24) microseconds (0.4% relative resolution).  Recording is
/// allocation-free, so a run's memory does not grow with its sample count.
class LatencyHistogram {
public:
    void add(double us);
    void merge(const LatencyHistogram& o);
    std::uint64_t count() const { return n_; }
    /// Quantile q in [0, 1], interpolated linearly inside the bucket.
    double quantile(double q) const;
    /// Sample count, p50/p90/p95/p99 and the samples beyond p99 (JSON).
    std::string summary() const;

private:
    static constexpr int kSub = 256;
    static constexpr int kOctaves = 32;
    static double lower_edge(std::size_t bucket);
    std::vector<std::uint64_t> counts_ =
        std::vector<std::uint64_t>(static_cast<std::size_t>(kSub * kOctaves), 0);
    std::uint64_t n_ = 0;
};

/// Thrown when an identity gate or an input invariant fails; main() turns it
/// into a non-zero exit without a result line.
struct GateFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};
void require(bool ok, const std::string& what);

/// Insertion-ordered JSON object writer (numbers keep full precision).
class Json {
public:
    Json& num(const std::string& key, double v);
    Json& integer(const std::string& key, std::uint64_t v);
    Json& str(const std::string& key, const std::string& v);
    Json& boolean(const std::string& key, bool v);
    Json& raw(const std::string& key, const std::string& json);
    Json& spread(const std::string& key, const Spread& s);
    std::string done() const { return "{" + body_ + "}"; }

private:
    void key(const std::string& k);
    std::string body_;
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/// What one run of one workload reports.
struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Per-metric spreads, input summary, gate outcomes (printed on the
    /// `detail` line before the result line).
    Json detail;

    void add(const std::string& name, const std::string& unit, double value)
    {
        metrics.push_back({name, unit, value});
    }
};

}  // namespace e2e

#endif  // E2E_COMMON_H
