#include "batch/fault_inject.h"

#include <limits>

#include "batch/batch.h"
#include "tech/technology.h"

namespace cong93 {

const char* to_string(RouteStatus s)
{
    switch (s) {
    case RouteStatus::ok: return "ok";
    case RouteStatus::fallback_brbc: return "fallback_brbc";
    case RouteStatus::fallback_spt: return "fallback_spt";
    case RouteStatus::uniform_width: return "uniform_width";
    case RouteStatus::deadline_degraded: return "deadline_degraded";
    case RouteStatus::invalid_input: return "invalid_input";
    case RouteStatus::cancelled: return "cancelled";
    case RouteStatus::rejected_overload: return "rejected_overload";
    case RouteStatus::failed: return "failed";
    }
    return "?";
}

RouteStatus route_status_from_string(const std::string& name)
{
    for (std::size_t i = 0; i < kRouteStatusCount; ++i) {
        const auto s = static_cast<RouteStatus>(i);
        if (name == to_string(s)) return s;
    }
    throw std::invalid_argument("unknown RouteStatus name: " + name);
}

const char* to_string(RouteStage s)
{
    switch (s) {
    case RouteStage::validate: return "validate";
    case RouteStage::topology: return "topology";
    case RouteStage::fallback: return "fallback";
    case RouteStage::compile: return "compile";
    case RouteStage::report: return "report";
    case RouteStage::wiresize: return "wiresize";
    case RouteStage::moment_check: return "moment_check";
    case RouteStage::lifecycle: return "lifecycle";
    }
    return "?";
}

RouteStage route_stage_from_string(const std::string& name)
{
    for (std::size_t i = 0; i < kRouteStageCount; ++i) {
        const auto s = static_cast<RouteStage>(i);
        if (name == to_string(s)) return s;
    }
    throw std::invalid_argument("unknown RouteStage name: " + name);
}

double FaultPlan::rate_of(RouteStage stage) const
{
    switch (stage) {
    case RouteStage::topology: return topology_rate;
    case RouteStage::fallback: return fallback_rate;
    case RouteStage::wiresize: return wiresize_rate;
    case RouteStage::moment_check: return moment_rate;
    case RouteStage::report: return nan_tech_rate;
    case RouteStage::compile: return arena_cap_rate;
    case RouteStage::validate: return 0.0;
    case RouteStage::lifecycle: return 0.0;
    }
    return 0.0;
}

std::uint64_t FaultPlan::vcost_of(RouteStage stage) const
{
    switch (stage) {
    case RouteStage::topology: return vcost_topology;
    case RouteStage::fallback: return vcost_fallback;
    case RouteStage::compile: return vcost_compile;
    case RouteStage::report: return vcost_report;
    case RouteStage::wiresize: return vcost_wiresize;
    case RouteStage::moment_check: return vcost_moment;
    case RouteStage::validate: return 0;
    case RouteStage::lifecycle: return 0;
    }
    return 0;
}

std::uint64_t FaultPlan::vjitter_of(std::size_t net_index) const
{
    if (!virtual_clock() || vjitter == 0) return 0;
    // Same stage-salted splitmix64 stream as fires(), keyed on the
    // lifecycle stage: a pure function of the net index, so the jitter --
    // and therefore which nets expire -- is identical at any thread count.
    const std::uint64_t salt =
        seed ^ (0x9e3779b97f4a7c15ULL *
                (static_cast<std::uint64_t>(RouteStage::lifecycle) + 1));
    return net_seed(salt, net_index) % vjitter;
}

bool FaultPlan::fires(std::size_t net_index, RouteStage stage) const
{
    if (!enabled) return false;
    const double rate = rate_of(stage);
    if (rate <= 0.0) return false;
    // Per-(stage, net) draw: salt the base seed by the stage so one net can
    // be hit at several stages independently, then hash with the same
    // splitmix64 as every other per-net stream -- a pure function of the
    // index, never of scheduling.
    const std::uint64_t salt =
        seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(stage) + 1));
    const double u =
        static_cast<double>(net_seed(salt, net_index) >> 11) * 0x1.0p-53;
    return u < rate;
}

void FaultPlan::maybe_throw(std::size_t net_index, RouteStage stage,
                            const char* what) const
{
    if (fires(net_index, stage)) throw InjectedFault(what);
}

Technology FaultPlan::corrupt_nan(const Technology& tech)
{
    Technology bad = tech;
    bad.unit_wire_resistance_ohm = std::numeric_limits<double>::quiet_NaN();
    bad.unit_wire_capacitance_f = std::numeric_limits<double>::quiet_NaN();
    return bad;
}

namespace {

double parse_rate(const std::string& key, const std::string& value)
{
    std::size_t used = 0;
    double rate = -1.0;
    try {
        rate = std::stod(value, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != value.size() || rate < 0.0 || rate > 1.0)
        throw std::invalid_argument("fault plan: bad rate for '" + key +
                                    "': " + value);
    return rate;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value)
{
    std::size_t used = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(value, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != value.size())
        throw std::invalid_argument("fault plan: bad integer for '" + key +
                                    "': " + value);
    return static_cast<std::uint64_t>(n);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec)
{
    FaultPlan plan;
    if (spec.empty()) return plan;
    plan.enabled = true;

    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos) end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty()) continue;

        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("fault plan: expected key=value, got '" +
                                        item + "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);

        if (key == "seed") {
            plan.seed = parse_u64(key, value);
        } else if (key == "topology") {
            plan.topology_rate = parse_rate(key, value);
        } else if (key == "fallback") {
            plan.fallback_rate = parse_rate(key, value);
        } else if (key == "wiresize") {
            plan.wiresize_rate = parse_rate(key, value);
        } else if (key == "moment") {
            plan.moment_rate = parse_rate(key, value);
        } else if (key == "nan") {
            plan.nan_tech_rate = parse_rate(key, value);
        } else if (key == "arena-cap") {
            // N@R: cap at N nodes for a rate-R subset of nets.
            const std::size_t at = value.find('@');
            if (at == std::string::npos)
                throw std::invalid_argument(
                    "fault plan: arena-cap wants NODES@RATE, got '" + value + "'");
            plan.arena_cap_nodes =
                static_cast<std::size_t>(parse_u64(key, value.substr(0, at)));
            plan.arena_cap_rate = parse_rate(key, value.substr(at + 1));
        } else if (key == "vdeadline") {
            plan.vdeadline_ticks = parse_u64(key, value);
        } else if (key == "vcost-topology") {
            plan.vcost_topology = parse_u64(key, value);
        } else if (key == "vcost-fallback") {
            plan.vcost_fallback = parse_u64(key, value);
        } else if (key == "vcost-compile") {
            plan.vcost_compile = parse_u64(key, value);
        } else if (key == "vcost-report") {
            plan.vcost_report = parse_u64(key, value);
        } else if (key == "vcost-wiresize") {
            plan.vcost_wiresize = parse_u64(key, value);
        } else if (key == "vcost-moment") {
            plan.vcost_moment = parse_u64(key, value);
        } else if (key == "vjitter") {
            plan.vjitter = parse_u64(key, value);
        } else {
            throw std::invalid_argument("fault plan: unknown key '" + key + "'");
        }
    }
    return plan;
}

}  // namespace cong93
