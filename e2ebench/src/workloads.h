// The benchmark's workloads.  Each reports every end-to-end metric from an
// untraced run (trace == false), or every per-layer metric from a traced
// run that re-executes the same inputs (trace == true).
#ifndef E2E_WORKLOADS_H
#define E2E_WORKLOADS_H

#include <cstdint>
#include <string>

#include "common.h"

namespace e2e {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_dir;  ///< where the traced run writes its span files
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

RunResult run_stream(const Args& args);  // stream_small, stream_wide
RunResult run_eco(const Args& args);     // eco_service

/// True for the workloads run_stream handles.
bool is_stream_workload(const std::string& name);

}  // namespace e2e

#endif  // E2E_WORKLOADS_H
